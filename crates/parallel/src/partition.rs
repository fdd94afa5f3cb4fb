//! Partitioning helpers: assigning simulated entities to logical processes.
//!
//! "Using the underlying physical distributed resources of clusters of
//! nodes" (§5) requires splitting the model; these helpers provide the two
//! standard static assignments plus a **profile-guided** one that balances
//! measured work instead of entity counts. The mapping affects inter-LP
//! traffic (and hence synchronization overhead) but never results, since
//! the engines are deterministic.

use crate::lp::LpId;

/// Assigns `n_entities` to `n_lps` in contiguous blocks.
///
/// Block partitioning keeps neighborhoods together, which minimizes
/// cross-LP traffic for locally-connected topologies.
pub fn block_partition(n_entities: usize, n_lps: usize) -> Vec<LpId> {
    assert!(n_lps > 0, "need at least one LP");
    let base = n_entities / n_lps;
    let extra = n_entities % n_lps;
    let mut out = Vec::with_capacity(n_entities);
    for lp in 0..n_lps {
        let count = base + usize::from(lp < extra);
        out.extend(std::iter::repeat_n(lp, count));
    }
    out
}

/// Assigns entity `i` to LP `i mod n_lps`.
///
/// Round-robin balances entity counts exactly but scatters neighborhoods,
/// maximizing cross-LP traffic — the adversarial case for E4.
pub fn round_robin_partition(n_entities: usize, n_lps: usize) -> Vec<LpId> {
    assert!(n_lps > 0, "need at least one LP");
    (0..n_entities).map(|i| i % n_lps).collect()
}

/// Full inverse index of an assignment in one pass: element `lp` lists
/// the entities owned by `lp`, in ascending entity order.
///
/// `n_lps` sizes the result (assignments may leave trailing LPs empty);
/// it must cover every LP id that appears in `assignment`.
pub fn owners(assignment: &[LpId], n_lps: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); n_lps];
    for (entity, &lp) in assignment.iter().enumerate() {
        assert!(lp < n_lps, "assignment names LP {lp} but n_lps is {n_lps}");
        out[lp].push(entity);
    }
    out
}

/// Assigns entities to LPs by **estimated work**, heaviest first onto the
/// least-loaded LP (longest-processing-time greedy; ties by entity id,
/// then by LP id — fully deterministic).
///
/// `costs[i]` is entity `i`'s estimated cost in arbitrary units (e.g.
/// measured handler wall-time per entity from a profiling run). LPT is a
/// 4/3-approximation of the optimal makespan, which is enough to undo the
/// hot-spot imbalance that defeats count-based partitioning: a block
/// partition puts one hot entity and its cold neighbors on the same LP,
/// while `profiled` spreads the heavy entities first.
pub fn profiled(costs: &[f64], n_lps: usize) -> Vec<LpId> {
    assert!(n_lps > 0, "need at least one LP");
    for (i, c) in costs.iter().enumerate() {
        assert!(
            c.is_finite() && *c >= 0.0,
            "entity {i} has invalid cost {c}"
        );
    }
    let mut by_cost: Vec<usize> = (0..costs.len()).collect();
    // total_cmp is exact on the finite, non-negative costs asserted above
    by_cost.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    let mut load = vec![0.0f64; n_lps];
    let mut out = vec![0usize; costs.len()];
    for entity in by_cost {
        let mut best = 0usize;
        for lp in 1..n_lps {
            if load[lp] < load[best] {
                best = lp;
            }
        }
        out[entity] = best;
        load[best] += costs[entity];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_partition_sizes_balanced() {
        let p = block_partition(10, 3);
        assert_eq!(p.len(), 10);
        assert_eq!(p, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn block_partition_contiguous() {
        let p = block_partition(100, 7);
        for w in p.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1);
        }
    }

    #[test]
    fn round_robin_cycles() {
        let p = round_robin_partition(7, 3);
        assert_eq!(p, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn owners_inverts_assignment_in_one_pass() {
        let inv = owners(&block_partition(11, 4), 4);
        assert_eq!(
            inv,
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8], vec![9, 10]]
        );
        // trailing empty LPs are represented, not dropped
        let inv = owners(&[0, 0], 3);
        assert_eq!(inv, vec![vec![0, 1], vec![], vec![]]);
    }

    #[test]
    fn empty_entities() {
        assert!(block_partition(0, 4).is_empty());
        assert!(round_robin_partition(0, 4).is_empty());
        assert!(profiled(&[], 4).is_empty());
    }

    #[test]
    fn more_lps_than_entities() {
        let p = block_partition(2, 5);
        assert_eq!(p, vec![0, 1]);
    }

    /// Max LP load over mean LP load — 1.0 is perfect balance.
    fn imbalance(assignment: &[LpId], costs: &[f64], n_lps: usize) -> f64 {
        let mut load = vec![0.0; n_lps];
        for (e, &lp) in assignment.iter().enumerate() {
            load[lp] += costs[e];
        }
        let total: f64 = load.iter().sum();
        let max = load.iter().fold(0.0f64, |a, &b| a.max(b));
        max / (total / n_lps as f64)
    }

    #[test]
    fn profiled_balances_hot_spot_where_block_cannot() {
        // entity 0 is 5× hotter than the other 15: one LP's fair share,
        // so LPT can balance perfectly while block stacks it with 3 more
        let mut costs = vec![1.0; 16];
        costs[0] = 5.0;
        let block = block_partition(16, 4);
        let prof = profiled(&costs, 4);
        let bi = imbalance(&block, &costs, 4);
        let pi = imbalance(&prof, &costs, 4);
        assert!(bi > 1.5, "block partition should be imbalanced, got {bi}");
        assert!(pi < 1.01, "profiled partition should balance, got {pi}");
        // every entity assigned, all LPs in range
        assert_eq!(prof.len(), 16);
        assert!(prof.iter().all(|&lp| lp < 4));
    }

    #[test]
    fn profiled_never_loses_to_count_based_partitions() {
        let (n_entities, n_lps) = (128, 8);
        // one entity carrying exactly one LP's fair share of the total
        let mut hot = vec![1.0; n_entities];
        hot[0] = (n_entities as f64 - 1.0) / (n_lps as f64 - 1.0);
        let zipf: Vec<f64> = (0..n_entities).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        for (shape, costs) in [("hot entity", &hot), ("zipf", &zipf)] {
            let prof = imbalance(&profiled(costs, n_lps), costs, n_lps);
            for (rival, assignment) in [
                ("block", block_partition(n_entities, n_lps)),
                ("round-robin", round_robin_partition(n_entities, n_lps)),
            ] {
                let theirs = imbalance(&assignment, costs, n_lps);
                assert!(
                    prof <= theirs + 1e-9,
                    "{shape}: profiled {prof} lost to {rival} {theirs}"
                );
            }
        }
    }

    #[test]
    fn profiled_is_deterministic_under_ties() {
        let costs = vec![1.0; 12];
        let a = profiled(&costs, 3);
        let b = profiled(&costs, 3);
        assert_eq!(a, b);
        // equal costs degrade to a balanced count split
        let inv = owners(&a, 3);
        assert!(inv.iter().all(|o| o.len() == 4));
    }

    #[test]
    #[should_panic(expected = "invalid cost")]
    fn profiled_rejects_nan_cost() {
        profiled(&[1.0, f64::NAN], 2);
    }
}
