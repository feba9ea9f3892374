//! Disjoint-set forest with path compression and union by size, used for
//! the property-clique computation of the weak summary.

/// A union-find over dense `usize` elements.
#[derive(Clone, Debug)]
pub(crate) struct UnionFind {
    parent: Vec<usize>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub(crate) fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), size: vec![1; n] }
    }

    /// The canonical representative of `x`'s set.
    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            // Path halving.
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub(crate) fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_count(uf: &mut UnionFind) -> usize {
        (0..uf.parent.len()).filter(|&i| uf.find(i) == i).count()
    }

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(set_count(&mut uf), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert_eq!(set_count(&mut uf), 3);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
    }

    #[test]
    fn transitive_merging() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        uf.union(2, 3);
        for i in 0..5 {
            assert_eq!(uf.find(0), uf.find(i), "element {i}");
        }
        assert_ne!(uf.find(0), uf.find(5));
    }

    #[test]
    fn empty_is_fine() {
        let mut uf = UnionFind::new(0);
        assert_eq!(set_count(&mut uf), 0);
    }
}
