//! The §3 reduction pipeline: general metrics → trees → stars, made
//! constructive (Theorem 2).
//!
//! The paper proves Theorem 2 (the square-root assignment admits a
//! `polylog(n)`-competitive coloring for bidirectional requests) through a
//! chain of reductions:
//!
//! 1. split pairs into the node-loss problem (§3.2,
//!    [`oblisched_sinr::nodeloss::split_pairs`]),
//! 2. embed the metric into a family of dominating trees and restrict to a
//!    tree core containing most nodes (Lemma 6 / Proposition 7,
//!    [`oblisched_metric::embedding`]),
//! 3. decompose the tree recursively at centroids into stars (Lemma 9),
//! 4. on every star keep the nodes that the square-root assignment can serve
//!    (Lemma 5, [`crate::star_analysis`]),
//! 5. re-interpret the surviving nodes in the original metric (Lemma 8) and
//!    rescale the gain (Propositions 3/4).
//!
//! The existence proof is non-constructive only in its use of Lemma 5; since
//! our star step is constructive, the whole pipeline below is an executable
//! algorithm. Every color class it emits is certified by the exact SINR
//! checker, so the schedules are always valid; the `polylog(n)` *quality* is
//! what experiment E4 measures. The per-round certification and greedy
//! maximisation steps run on the incremental interference engine (the
//! node-loss evaluator implements
//! [`oblisched_sinr::GainBackend`]), keeping rounds `O(set)` per
//! admission test.

use crate::star_analysis::star_sqrt_subset;
use oblisched_metric::{
    DominatingTreeFamily, EmbeddingConfig, MetricSpace, NodeId, StarMetric, WeightedTree,
};
use oblisched_sinr::nodeloss::split_pairs;
use oblisched_sinr::{extract_feasible_subset, Instance, NodeLossInstance, Schedule, SinrParams};
use rand::Rng;
// BTree collections, not hash maps: the survivor set is iterated when the
// candidate list is built, and scheduler output must never depend on hash
// iteration order (`oblint`'s map-iteration-order lint enforces this).
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of the decomposition pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecompositionConfig {
    /// Configuration of the dominating-tree-family sampling (Lemma 6).
    pub embedding: EmbeddingConfig,
    /// Gain used for the intermediate star selections, as a fraction of the
    /// model gain `β`. Smaller values keep more nodes per star and rely on
    /// the final certification to thin the set.
    pub star_gain_fraction: f64,
    /// Upper bound on the number of scheduling rounds (a defensive guard —
    /// each round schedules at least one request, so `n` rounds always
    /// suffice).
    pub max_rounds: usize,
}

impl Default for DecompositionConfig {
    fn default() -> Self {
        Self {
            embedding: EmbeddingConfig::default(),
            star_gain_fraction: 0.5,
            max_rounds: 100_000,
        }
    }
}

/// Runs the Theorem 2 pipeline on a node-loss instance and returns a subset
/// of nodes that is feasible under the square-root assignment at the model
/// gain `β` (certified by the exact checker).
pub fn sqrt_feasible_nodes<M: MetricSpace, R: Rng + ?Sized>(
    instance: &NodeLossInstance<M>,
    params: &SinrParams,
    config: &DecompositionConfig,
    rng: &mut R,
) -> Vec<usize> {
    let n = instance.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![0];
    }

    // Lemma 6 / Proposition 7: dominating tree family over the node-loss
    // metric, restricted to the core of the best tree.
    let family = DominatingTreeFamily::build(instance.metric(), config.embedding, rng);
    let all: Vec<usize> = (0..n).collect();
    let (tree_index, core_nodes) = family
        .best_tree_for(&all)
        .expect("family contains at least one tree");
    let embedding = family.tree(tree_index);

    // Lemma 9: recursive centroid decomposition of the host tree; the
    // survivors of every star selection along the way are kept.
    let host = embedding.tree();
    let mut active_hosts: Vec<NodeId> = Vec::new();
    let mut hosted: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for &node in &core_nodes {
        let leaf = embedding.leaf_of(node);
        hosted.entry(leaf).or_default().push(node);
        if !active_hosts.contains(&leaf) {
            active_hosts.push(leaf);
        }
    }
    let component: Vec<NodeId> = (0..host.len()).collect();
    let star_gain = (params.beta() * config.star_gain_fraction).max(f64::MIN_POSITIVE);
    let mut survivors: BTreeSet<usize> = BTreeSet::new();
    recurse_on_tree(
        host,
        &component,
        &hosted,
        instance,
        params,
        star_gain,
        &mut survivors,
    );

    // Lemma 8 + Propositions 3/4: certify the survivors in the original
    // metric under the square-root assignment at the model gain.
    let evaluator = instance.sqrt_evaluator(*params);
    // `BTreeSet` iteration is ascending, so the candidate list is already
    // sorted — deterministically, independent of insertion order.
    let mut candidate: Vec<usize> = survivors.into_iter().collect();
    if candidate.is_empty() {
        candidate = all;
    }
    extract_feasible_subset(&evaluator, &candidate, params.beta())
}

/// One level of the Lemma 9 recursion: pick a centroid of the current
/// component, run the Lemma 5 star selection around it, then recurse into the
/// sub-components.
fn recurse_on_tree<M: MetricSpace>(
    host: &WeightedTree,
    component: &[NodeId],
    hosted: &BTreeMap<NodeId, Vec<usize>>,
    instance: &NodeLossInstance<M>,
    params: &SinrParams,
    star_gain: f64,
    survivors: &mut BTreeSet<usize>,
) {
    // Node-loss nodes present in this component.
    let present: Vec<usize> = component
        .iter()
        .filter_map(|v| hosted.get(v))
        .flat_map(|nodes| nodes.iter().copied())
        .collect();
    if present.is_empty() {
        return;
    }
    if present.len() == 1 {
        survivors.insert(present[0]);
        return;
    }
    let centroid = match host.centroid_of(component) {
        Some(c) => c,
        None => return,
    };

    // Star around the centroid: one leaf per node-loss node, radius = tree
    // distance from the centroid to the node's host vertex.
    let mut active = vec![false; host.len()];
    for &v in component {
        active[v] = true;
    }
    let dist = host.distances_from_restricted(centroid, Some(&active));
    let mut radii = Vec::with_capacity(present.len());
    let mut leaf_to_node = Vec::with_capacity(present.len());
    for &node in &present {
        let host_vertex = component
            .iter()
            .copied()
            .find(|v| hosted.get(v).is_some_and(|nodes| nodes.contains(&node)))
            .expect("present nodes have a host in the component");
        let r = dist[host_vertex];
        if r.is_finite() {
            radii.push(r);
            leaf_to_node.push(node);
        }
    }
    let losses: Vec<f64> = leaf_to_node
        .iter()
        .map(|&node| instance.loss(node))
        .collect();
    let star_instance = NodeLossInstance::new(StarMetric::new(radii), losses)
        .expect("losses are positive by construction");
    let kept_leaves = star_sqrt_subset(&star_instance, params, star_gain);
    for &leaf in &kept_leaves {
        survivors.insert(leaf_to_node[leaf]);
    }

    // Split at the centroid and recurse into the resulting components.
    let mut without_centroid = active.clone();
    without_centroid[centroid] = false;
    for sub in host.components(&without_centroid) {
        recurse_on_tree(host, &sub, hosted, instance, params, star_gain, survivors);
    }
}

/// Schedules a bidirectional instance with the square-root assignment by
/// repeatedly extracting a feasible node set via [`sqrt_feasible_nodes`],
/// coloring the requests whose both endpoints survived, and recursing on the
/// remainder (the strategy of §3.5).
///
/// The returned schedule is always feasible for the square-root assignment in
/// the bidirectional variant. Rounds that fail to cover a full pair fall back
/// to greedy selection so progress is guaranteed.
pub fn sqrt_schedule_via_decomposition<M: MetricSpace, R: Rng + ?Sized>(
    instance: &Instance<M>,
    params: &SinrParams,
    config: &DecompositionConfig,
    rng: &mut R,
) -> Schedule {
    let n = instance.len();
    let mut colors = vec![usize::MAX; n];
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut color = 0;
    let evaluator = instance.evaluator(*params, &oblisched_sinr::ObliviousPower::SquareRoot);
    let view = evaluator.view(oblisched_sinr::Variant::Bidirectional);

    while !remaining.is_empty() && color < config.max_rounds {
        // Build the node-loss problem for the remaining requests only.
        let (restricted, mapping) = instance.restrict(&remaining);
        let (node_loss, pair_map) = split_pairs(&restricted, params);
        let nodes = sqrt_feasible_nodes(&node_loss, params, config, rng);
        let covered_local = pair_map.requests_fully_covered(&nodes);
        let mut covered: Vec<usize> = covered_local.iter().map(|&i| mapping[i]).collect();
        // Certify the pair set (node feasibility implies pair feasibility only
        // up to constant gain factors, so thin explicitly at gain β), then
        // make the color class maximal.
        covered = extract_feasible_subset(&view, &covered, params.beta());
        covered = crate::greedy::greedy_augment(&view, covered, &remaining);
        if covered.is_empty() {
            covered = vec![remaining[0]];
        }
        for &i in &covered {
            colors[i] = color;
        }
        remaining.retain(|i| !covered.contains(i));
        color += 1;
    }
    // Any stragglers (only possible if max_rounds was hit) get their own
    // colors.
    for (i, c) in colors.iter_mut().enumerate() {
        if *c == usize::MAX {
            *c = color;
            color += 1;
            let _ = i;
        }
    }
    Schedule::new(colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblisched_instances::{nested_chain, uniform_deployment, DeploymentConfig};
    use oblisched_sinr::{InterferenceSystem, ObliviousPower, Variant};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn params() -> SinrParams {
        SinrParams::new(3.0, 1.0).unwrap()
    }

    #[test]
    fn node_selection_is_feasible_under_sqrt() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let inst = uniform_deployment(
            DeploymentConfig {
                num_requests: 12,
                side: 400.0,
                min_link: 1.0,
                max_link: 10.0,
            },
            &mut rng,
        );
        let p = params();
        let (node_loss, _) = split_pairs(&inst, &p);
        let nodes = sqrt_feasible_nodes(&node_loss, &p, &DecompositionConfig::default(), &mut rng);
        let eval = node_loss.sqrt_evaluator(p);
        assert!(
            eval.is_feasible(&nodes),
            "selected node set must be feasible at gain beta"
        );
        assert!(!nodes.is_empty());
    }

    #[test]
    fn node_selection_handles_tiny_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let metric = oblisched_metric::LineMetric::new(vec![0.0, 5.0]);
        let inst = NodeLossInstance::new(metric, vec![1.0, 2.0]).unwrap();
        let nodes =
            sqrt_feasible_nodes(&inst, &params(), &DecompositionConfig::default(), &mut rng);
        assert!(!nodes.is_empty());

        let empty =
            NodeLossInstance::new(oblisched_metric::LineMetric::new(vec![]), vec![]).unwrap();
        assert!(
            sqrt_feasible_nodes(&empty, &params(), &DecompositionConfig::default(), &mut rng)
                .is_empty()
        );
    }

    #[test]
    fn decomposition_schedule_is_feasible_on_random_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let inst = uniform_deployment(
            DeploymentConfig {
                num_requests: 14,
                side: 300.0,
                min_link: 1.0,
                max_link: 8.0,
            },
            &mut rng,
        );
        let p = params();
        let schedule =
            sqrt_schedule_via_decomposition(&inst, &p, &DecompositionConfig::default(), &mut rng);
        let eval = inst.evaluator(p, &ObliviousPower::SquareRoot);
        assert!(schedule.validate(&eval, Variant::Bidirectional).is_ok());
        assert_eq!(schedule.len(), 14);
    }

    #[test]
    fn decomposition_schedule_is_feasible_on_the_nested_chain() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let inst = nested_chain(8, 2.0);
        let p = params();
        let schedule =
            sqrt_schedule_via_decomposition(&inst, &p, &DecompositionConfig::default(), &mut rng);
        let eval = inst.evaluator(p, &ObliviousPower::SquareRoot);
        assert!(schedule.validate(&eval, Variant::Bidirectional).is_ok());
        // The sqrt assignment needs only a handful of colors on the nested
        // chain (uniform would need all 8).
        assert!(
            schedule.num_colors() <= 6,
            "used {} colors",
            schedule.num_colors()
        );
    }

    #[test]
    fn decomposition_covers_every_request_exactly_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let inst = uniform_deployment(
            DeploymentConfig {
                num_requests: 10,
                side: 200.0,
                min_link: 1.0,
                max_link: 5.0,
            },
            &mut rng,
        );
        let p = params();
        let schedule =
            sqrt_schedule_via_decomposition(&inst, &p, &DecompositionConfig::default(), &mut rng);
        assert_eq!(schedule.len(), 10);
        let total: usize = schedule.classes().iter().map(|c| c.len()).sum();
        assert_eq!(total, 10);
    }
}
