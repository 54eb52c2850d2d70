//! Top-down cascade of *relatives lists*: for every net center at the
//! current level, all centers within `K * radius`.
//!
//! This generalizes the construction-time friends lists to an arbitrary
//! factor `K >= 4`. `pg-core` drives the cascade with `K = φ + 1` to
//! enumerate the out-edges of `G_net`: the centers within `φ * r_i` of a
//! point `p` are all relatives of `p`'s covering center (by the triangle
//! inequality, they lie within `(φ + 1) * r_i` of it). On a doubling metric
//! each relatives list has `K^{O(λ)}` entries (the packing bound, Fact 2.3),
//! which is exactly the `O(φ^λ)` term in the paper's Eq. (13).

use pg_metric::{Dataset, Metric};

use crate::hierarchy::{NetHierarchy, NetLevel};

/// Iterator-style descent through a [`NetHierarchy`], maintaining relatives
/// lists for one level at a time (memory stays proportional to a single
/// level's output rather than the whole ladder's).
#[derive(Debug)]
pub struct RelativesCascade<'h, 'd, P, M> {
    hierarchy: &'h NetHierarchy,
    data: &'d Dataset<P, M>,
    k: f64,
    /// Index of the current level (bottom-up indexing; starts at the top).
    level_idx: usize,
    /// `rel[pos]` = positions (within the current level) of all centers
    /// within `k * radius` of the center at `pos`. Includes `pos` itself.
    rel: Vec<Vec<u32>>,
}

impl<'h, 'd, P: Sync, M: Metric<P> + Sync> RelativesCascade<'h, 'd, P, M> {
    /// Starts a cascade at the top level. `k` must be at least 4 for the
    /// level-to-level recurrence to be complete.
    pub fn new(data: &'d Dataset<P, M>, hierarchy: &'h NetHierarchy, k: f64) -> Self {
        assert!(k >= 4.0, "relatives factor must be >= 4, got {k}");
        RelativesCascade {
            hierarchy,
            data,
            k,
            level_idx: hierarchy.num_levels() - 1,
            rel: vec![vec![0]],
        }
    }

    /// The level the relatives currently describe (bottom-up index).
    pub fn level_idx(&self) -> usize {
        self.level_idx
    }

    /// The relatives factor `K`.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Relatives lists for the current level: `relatives()[pos]` holds the
    /// positions of every center within `k * radius` of center `pos`.
    pub fn relatives(&self) -> &[Vec<u32>] {
        &self.rel
    }

    /// Moves one level down, recomputing relatives. Returns `false` (and
    /// does nothing) when already at the bottom level.
    ///
    /// Completeness argument: let `y, z` be centers of the lower level with
    /// `D(y, z) <= k * r`. Their parents (covers at the upper level, radius
    /// `2r`) satisfy `D(parent(y), parent(z)) <= k*r + 2r + 2r =
    /// (k/2 + 2) * (2r) <= k * (2r)` since `k >= 4`, so `parent(z)` is a
    /// relative of `parent(y)` and `z` is found either as a carried-over
    /// center or as a freshly promoted child of that relative.
    pub fn descend(&mut self) -> bool {
        if self.level_idx == 0 {
            return false;
        }
        let above_len = self.hierarchy.level(self.level_idx).len();
        let below = self.hierarchy.level(self.level_idx - 1);
        // Freshly promoted centers of `below`, grouped by parent position.
        let mut new_by_parent: Vec<Vec<u32>> = vec![Vec::new(); above_len];
        for pos in above_len..below.len() {
            new_by_parent[below.parent_pos[pos] as usize].push(pos as u32);
        }
        self.rel = relatives_step(
            self.data,
            below,
            &new_by_parent,
            &self.rel,
            self.k * below.radius,
        );
        self.level_idx -= 1;
        true
    }
}

/// One step of the relatives recurrence, shared by the friends lists of
/// [`NetHierarchy::build`] (`reach = 4 r`) and [`RelativesCascade::descend`]
/// (`reach = K r`): from the relatives `rel_above` of the level above, the
/// list of every center of `below` within `reach` of each center of `below`.
///
/// Center `y`'s candidates are the relatives of its parent, each with the
/// fresh children `new_by_parent` lists for it; a carried-over relative
/// `f` is the same center at position `f` on both levels (the position
/// invariant). Each list depends only on the immutable inputs, so the
/// centers are mapped in parallel with the order-preserving
/// `par_map_range`: the output is bit-identical at every thread count.
///
/// Each candidate test is `D(y, z) <= reach` asked in surrogate space
/// against the exact cut-off `surrogate_bound(reach)`, through the
/// early-exit `surrogate_within`: the same answers and the same count as
/// comparing full distances, with less coordinate work per rejection.
pub(crate) fn relatives_step<P: Sync, M: Metric<P> + Sync>(
    data: &Dataset<P, M>,
    below: &NetLevel,
    new_by_parent: &[Vec<u32>],
    rel_above: &[Vec<u32>],
    reach: f64,
) -> Vec<Vec<u32>> {
    let bound = data.surrogate_bound(reach);
    let within = |y: usize, pos: u32| {
        data.surrogate_within(y, below.centers[pos as usize] as usize, bound) <= bound
    };
    rayon::par_map_range(below.len(), |pos| {
        let y = below.centers[pos] as usize;
        let mut list = Vec::new();
        for &f in &rel_above[below.parent_pos[pos] as usize] {
            if within(y, f) {
                list.push(f);
            }
            list.extend(
                new_by_parent[f as usize]
                    .iter()
                    .copied()
                    .filter(|&np| within(y, np)),
            );
        }
        list
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::Euclidean;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_dataset(n: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new(
            (0..n)
                .map(|_| vec![rng.random_range(0.0..64.0), rng.random_range(0.0..64.0)])
                .collect(),
            Euclidean,
        )
    }

    /// Brute-force relatives at a level, for comparison.
    fn brute_rel(
        data: &Dataset<Vec<f64>, Euclidean>,
        centers: &[u32],
        k: f64,
        r: f64,
    ) -> Vec<Vec<u32>> {
        centers
            .iter()
            .map(|&y| {
                centers
                    .iter()
                    .enumerate()
                    .filter(|&(_, &z)| data.dist(y as usize, z as usize) <= k * r)
                    .map(|(pos, _)| pos as u32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn cascade_matches_brute_force_at_every_level() {
        let ds = random_dataset(150, 5);
        let h = NetHierarchy::build(&ds);
        for k in [4.0, 6.0, 10.0] {
            let mut cascade = RelativesCascade::new(&ds, &h, k);
            loop {
                let lvl = h.level(cascade.level_idx());
                let expect = brute_rel(&ds, &lvl.centers, k, lvl.radius);
                let got: Vec<Vec<u32>> = cascade
                    .relatives()
                    .iter()
                    .map(|v| {
                        let mut v = v.clone();
                        v.sort_unstable();
                        v
                    })
                    .collect();
                assert_eq!(got, expect, "k = {k}, level = {}", cascade.level_idx());
                if !cascade.descend() {
                    break;
                }
            }
        }
    }

    #[test]
    fn relatives_always_include_self() {
        let ds = random_dataset(80, 6);
        let h = NetHierarchy::build(&ds);
        let mut cascade = RelativesCascade::new(&ds, &h, 4.0);
        loop {
            for (pos, list) in cascade.relatives().iter().enumerate() {
                assert!(
                    list.contains(&(pos as u32)),
                    "center {pos} missing from its own relatives"
                );
            }
            if !cascade.descend() {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be >= 4")]
    fn factor_below_four_rejected() {
        let ds = random_dataset(10, 7);
        let h = NetHierarchy::build(&ds);
        let _ = RelativesCascade::new(&ds, &h, 3.0);
    }
}
