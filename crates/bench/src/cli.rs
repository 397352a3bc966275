//! The one command line of `scdsim`, `scd-sweep`, `scd-check`,
//! `scd-telemetry` and `repro`: one argument loop and one way to refuse.
//!
//! A binary keeps its help text and its `match` over the flags. [`Args`]
//! hands it every argument in order (printing the help on `-h`/`--help`)
//! and parses the value a flag takes. [`refuse`] ends the process with exit
//! 2 in two stderr lines, the reason and where the options are:
//!
//! ```text
//! scdsim: bad --clusters `many`
//! run `scdsim --help` for the options
//! ```
//!
//! [`fail`] ends it with any other code in one line naming the binary;
//! [`read()`] and [`write()`] are the file access the binaries share.
//! README.md ("Exit codes") says what 0, 1 and 2 mean for each binary.

use std::fmt::Display;
use std::str::FromStr;
use std::sync::{Mutex, PoisonError};

/// The command being parsed, `(binary, subcommand or "")`: what every
/// refusal and failure names.
static COMMAND: Mutex<(&str, &str)> = Mutex::new(("", ""));

/// The process's arguments after the program name, handed out in order.
pub struct Args {
    help: String,
    rest: std::iter::Skip<std::env::Args>,
    /// The argument handed out last: the flag a value belongs to.
    flag: String,
}

impl Args {
    /// The arguments of binary `bin`, whose `--help` prints `help`.
    pub fn new(bin: &'static str, help: impl Into<String>) -> Args {
        *COMMAND.lock().unwrap_or_else(PoisonError::into_inner) = (bin, "");
        Args { help: help.into(), rest: std::env::args().skip(1), flag: String::new() }
    }

    /// The arguments left, as subcommand `name` whose `--help` prints
    /// `help`.
    pub fn sub(self, name: &'static str, help: &str) -> Args {
        COMMAND.lock().unwrap_or_else(PoisonError::into_inner).1 = name;
        Args { help: help.into(), ..self }
    }

    /// The value of the flag just handed out, or a refusal saying it
    /// needs one.
    pub fn value(&mut self) -> String {
        let flag = &self.flag;
        self.rest.next().unwrap_or_else(|| refuse(format_args!("{flag} needs a value")))
    }

    /// The flag's value through `FromStr`, or a refusal naming both.
    pub fn parse<T: FromStr>(&mut self) -> T {
        let value = self.value();
        value.parse().unwrap_or_else(|_| refuse(format_args!("bad {} `{value}`", self.flag)))
    }

    /// The flag's value through `parse`, or a refusal with its reason.
    pub fn parse_with<T>(&mut self, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
        parse(&self.value()).unwrap_or_else(|e| refuse(e))
    }

    /// The flag's value as a comma list: each non-empty item, trimmed,
    /// through `parse`, or a refusal with its reason or of an empty list.
    pub fn list<T>(&mut self, mut parse: impl FnMut(&str) -> Result<T, String>) -> Vec<T> {
        let value = self.value();
        let items = value.split(',').map(str::trim).filter(|item| !item.is_empty());
        let list: Vec<T> = items.map(|item| parse(item).unwrap_or_else(|e| refuse(e))).collect();
        if list.is_empty() {
            refuse(format_args!("{} list is empty", self.flag));
        }
        list
    }
}

impl Iterator for Args {
    type Item = String;

    /// The next flag or positional, as given; `-h`/`--help` prints the
    /// help on stdout and exits 0.
    fn next(&mut self) -> Option<String> {
        let arg = self.rest.next()?;
        if arg == "-h" || arg == "--help" {
            print!("{}", self.help);
            std::process::exit(0);
        }
        self.flag.clone_from(&arg);
        Some(arg)
    }
}

/// Refuses the command line: exit 2 with `reason`, then where the options
/// are.
pub fn refuse(reason: impl Display) -> ! {
    fail(2, reason)
}

/// Exits `code` with `<bin>: <msg>` on stderr. An exit 2 is a refusal, so
/// it adds the line that points at `--help`.
pub fn fail(code: i32, msg: impl Display) -> ! {
    let (bin, sub) = *COMMAND.lock().unwrap_or_else(PoisonError::into_inner);
    eprintln!("{bin}: {msg}");
    if code == 2 {
        let command = if sub.is_empty() { bin.to_string() } else { format!("{bin} {sub}") };
        eprintln!("run `{command} --help` for the options");
    }
    std::process::exit(code)
}

/// The text of the file at `path`, or a refusal naming it.
pub fn read(path: &str) -> String {
    let text = std::fs::read_to_string(path);
    text.unwrap_or_else(|e| refuse(format_args!("cannot read {path}: {e}")))
}

/// Writes `contents` to `path`, or exits 1 naming it.
pub fn write(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(1, format_args!("cannot write {path}: {e}"))
    }
}
