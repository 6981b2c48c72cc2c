//! Visited-state pruning never skips a distinct schedule.
//!
//! The pruned DFS cuts a subtree, and ends the run, whenever the
//! incremental state hash (over the trace records' fields, the instant,
//! the choice kind and the candidates) says "this exact state was
//! explored before". If the hash ever aliased two genuinely different
//! states, some reachable final trace would exist in the brute-force
//! enumeration but not in the pruned one. This drives both explorers over
//! the toy broadcast scenario at every size whose brute-force tree
//! completes within the run cap, and requires the *sets* of distinct
//! final trace hashes to be identical. (At (3, 2) neither search
//! completes within it.)

use rtsim_check::explore::{explore_with, Budget};
use rtsim_check::scenarios::toy_scenario;

#[test]
fn pruning_preserves_the_set_of_distinct_traces() {
    // Two or three equal tasks racing on a broadcast tick with tying
    // completions, and whether the tree revisits a state: (2, 1) never
    // does, so both searches walk the same runs there.
    const SIZES: [(usize, u64, bool); 3] = [(2, 1, false), (2, 2, true), (3, 1, true)];
    for (tasks, rounds, revisits) in SIZES {
        let scenario = toy_scenario(tasks, rounds);
        let budget = Budget::runs(100_000);
        let pruned = explore_with(&scenario, &budget, true);
        let brute = explore_with(&scenario, &budget, false);
        assert!(pruned.complete, "pruned exploration must finish in budget");
        assert!(brute.complete, "brute force must finish in budget");
        assert!(
            pruned.counterexample.is_none() && brute.counterexample.is_none(),
            "toy scenario must hold its invariants"
        );
        assert_eq!(
            pruned.trace_hashes, brute.trace_hashes,
            "pruning lost or invented a distinct schedule at \
             ({tasks} tasks, {rounds} rounds): pruned {} vs brute {}",
            pruned.distinct_traces, brute.distinct_traces
        );
        // Pruning must actually prune where the tree revisits a state:
        // strictly fewer runs than the unpruned tree walks, so a no-op
        // pruning fails here; where it revisits none, the same runs.
        if revisits {
            assert!(
                pruned.runs < brute.runs,
                "({tasks}, {rounds}): pruned runs {} not below brute-force runs {}",
                pruned.runs,
                brute.runs
            );
        } else {
            assert_eq!(pruned.runs, brute.runs, "({tasks}, {rounds}): runs");
        }
    }
}
