//! 2D mesh topology with dimension-ordered routing.

/// A rectangular mesh of `width x height` nodes.
///
/// Node `n` sits at `(n % width, n / width)`. Routing is X-first then Y
/// (dimension-ordered, deadlock-free in wormhole-routed meshes — the
/// mechanism DASH's prototype fabric uses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mesh {
    width: usize,
    height: usize,
}

impl Mesh {
    /// An explicit `width x height` mesh.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width >= 1 && height >= 1, "degenerate mesh");
        Mesh { width, height }
    }

    /// The most nearly square mesh holding at least `nodes` nodes
    /// (e.g. 16 -> 4x4, 32 -> 8x4, 64 -> 8x8).
    pub fn near_square(nodes: usize) -> Self {
        assert!(nodes >= 1);
        let mut h = (nodes as f64).sqrt().floor() as usize;
        while h > 1 && !nodes.is_multiple_of(h) {
            h -= 1;
        }
        Mesh::new(nodes / h, h)
    }

    /// Mesh width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Coordinates of node `n`.
    pub fn coords(&self, n: usize) -> (usize, usize) {
        assert!(n < self.nodes(), "node {n} outside mesh");
        (n % self.width, n / self.width)
    }

    /// Node at `(x, y)`.
    pub fn node_at(&self, x: usize, y: usize) -> usize {
        assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Manhattan distance between two nodes (number of mesh hops).
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// The dimension-ordered route from `a` to `b`, as the sequence of
    /// intermediate+final nodes traversed (empty when `a == b`).
    ///
    /// Returns an allocation-free iterator: the route used to materialize
    /// a `Vec<usize>` on every call, which made every simulated message
    /// (contention walk + per-link traffic counters) pay a heap
    /// allocation. Call sites that want a vector can still `.collect()`.
    pub fn route(&self, a: usize, b: usize) -> RouteIter {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        RouteIter {
            mesh: *self,
            x: ax,
            y: ay,
            bx,
            by,
        }
    }

    /// Slots in a table indexed by [`Mesh::link_index`]: four outgoing
    /// directions per node (edge nodes leave theirs unused).
    pub fn link_slots(&self) -> usize {
        self.nodes() * 4
    }

    /// Dense index of the directed link from `from` to its mesh neighbour
    /// `to`: `from * 4 + direction` (east, west, south, north).
    pub fn link_index(&self, from: usize, to: usize) -> usize {
        let dir = if to == from + 1 {
            0
        } else if to + 1 == from {
            1
        } else if to == from + self.width {
            2
        } else {
            assert_eq!(to + self.width, from, "{from} -> {to} is not a mesh link");
            3
        };
        from * 4 + dir
    }

    /// The `(from, to)` endpoints of link `index` — the inverse of
    /// [`Mesh::link_index`].
    pub fn link_ends(&self, index: usize) -> (usize, usize) {
        let from = index / 4;
        let to = match index % 4 {
            0 => from + 1,
            1 => from - 1,
            2 => from + self.width,
            _ => from - self.width,
        };
        (from, to)
    }
}

/// Allocation-free dimension-ordered route walk: X-moves toward the
/// target column, then Y-moves toward the target row, yielding each node
/// entered (see [`Mesh::route`]).
#[derive(Clone, Copy, Debug)]
pub struct RouteIter {
    mesh: Mesh,
    x: usize,
    y: usize,
    bx: usize,
    by: usize,
}

impl Iterator for RouteIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.x != self.bx {
            self.x = if self.bx > self.x { self.x + 1 } else { self.x - 1 };
        } else if self.y != self.by {
            self.y = if self.by > self.y { self.y + 1 } else { self.y - 1 };
        } else {
            return None;
        }
        Some(self.mesh.node_at(self.x, self.y))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for RouteIter {
    fn len(&self) -> usize {
        self.x.abs_diff(self.bx) + self.y.abs_diff(self.by)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_square_shapes() {
        assert_eq!(Mesh::near_square(16), Mesh::new(4, 4));
        assert_eq!(Mesh::near_square(32), Mesh::new(8, 4)); // DASH-scale 32 clusters
        assert_eq!(Mesh::near_square(64), Mesh::new(8, 8));
        assert_eq!(Mesh::near_square(1), Mesh::new(1, 1));
        // Primes degrade to a line but still hold everyone.
        assert_eq!(Mesh::near_square(7).nodes(), 7);
    }

    #[test]
    fn coords_round_trip() {
        let m = Mesh::new(8, 4);
        for n in 0..m.nodes() {
            let (x, y) = m.coords(n);
            assert_eq!(m.node_at(x, y), n);
        }
    }

    #[test]
    fn link_indices_are_dense_distinct_and_invertible() {
        for m in [Mesh::new(8, 4), Mesh::new(1, 5), Mesh::new(5, 1)] {
            let mut seen = std::collections::HashSet::new();
            for a in 0..m.nodes() {
                for b in 0..m.nodes() {
                    let mut prev = a;
                    for next in m.route(a, b) {
                        let i = m.link_index(prev, next);
                        assert!(i < m.link_slots());
                        assert_eq!(m.link_ends(i), (prev, next));
                        seen.insert(i);
                        prev = next;
                    }
                }
            }
            // Every directed link of the mesh is on some route.
            let links = 2 * ((m.width() - 1) * m.height() + m.width() * (m.height() - 1));
            assert_eq!(seen.len(), links);
        }
    }

    #[test]
    fn distance_is_manhattan() {
        let m = Mesh::new(4, 4);
        assert_eq!(m.distance(0, 0), 0);
        assert_eq!(m.distance(0, 3), 3);
        assert_eq!(m.distance(0, 15), 6);
        assert_eq!(m.distance(5, 10), 2);
        // Symmetry.
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(m.distance(a, b), m.distance(b, a));
            }
        }
    }

    #[test]
    fn route_length_equals_distance_and_ends_at_target() {
        let m = Mesh::new(8, 4);
        for a in 0..m.nodes() {
            for b in 0..m.nodes() {
                assert_eq!(m.route(a, b).len(), m.distance(a, b), "{a}->{b}");
                let r: Vec<usize> = m.route(a, b).collect();
                assert_eq!(r.len(), m.distance(a, b), "{a}->{b}");
                if a != b {
                    assert_eq!(*r.last().unwrap(), b);
                }
                // Each step moves exactly one hop.
                let mut prev = a;
                for &next in &r {
                    assert_eq!(m.distance(prev, next), 1, "{a}->{b} via {r:?}");
                    prev = next;
                }
            }
        }
    }

    #[test]
    fn route_is_x_first() {
        let m = Mesh::new(4, 4);
        // 0 (0,0) -> 10 (2,2): expect x-moves 1,2 then y-moves 6,10.
        assert_eq!(m.route(0, 10).collect::<Vec<_>>(), vec![1, 2, 6, 10]);
    }

    /// The iterator's size_hint is exact at every step (callers size
    /// latency math off it).
    #[test]
    fn route_iter_is_exact_size() {
        let m = Mesh::new(8, 4);
        let mut it = m.route(0, 30);
        let mut expect = m.distance(0, 30);
        assert_eq!(it.len(), expect);
        while it.next().is_some() {
            expect -= 1;
            assert_eq!(it.len(), expect);
            assert_eq!(it.size_hint(), (expect, Some(expect)));
        }
        assert_eq!(expect, 0);
    }
}
