//! Turns the traced run's spans into per-layer metrics and shares.
//!
//! A layer's self time is the difference between two depths for the same
//! op id (e.g. `SessionRegistry` minus `DurableScheduler` is the actor
//! handoff), or a span minus its children. Differences of separately
//! measured depths can be negative for a single op; medians and sums use
//! them as measured.

use crate::layers::{DurableRun, DynamicRun};
use crate::plan::{session_op_id, solve_op_id, Script, Solve, SolveKind};
use crate::trace::{median, quantile, Span};
use std::collections::BTreeMap;

/// Op id → summed span time in ns, for spans named `name`.
fn by_op(spans: &[Span], names: &[&str]) -> BTreeMap<u64, i64> {
    let mut map = BTreeMap::new();
    for s in spans.iter().filter(|s| names.contains(&s.name)) {
        *map.entry(s.op).or_insert(0) += s.ns() as i64;
    }
    map
}

fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64)
        .collect()
}

/// The spans of every depth of one traced run.
pub struct Depths {
    /// Depth 1, sessions: `DynamicScheduler`.
    pub dynamic: Vec<Span>,
    /// Depth 1, solves: the pieces and `Scheduler::solve`.
    pub solve: Vec<Span>,
    /// Depth 2: `DurableScheduler` and the timing store.
    pub durable: Vec<Span>,
    /// Depth 3: `SessionRegistry`.
    pub registry: Vec<Span>,
    /// Depth 4: `parse_request`, `Server::dispatch_line`, `render_response`.
    pub dispatch: Vec<Span>,
    /// Depth 5: wire round trips.
    pub wire: Vec<Span>,
}

/// Per-layer metrics (name, value, unit) and the share table.
pub struct Attribution {
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Layer → share of the traced end-to-end time, in percent.
    pub shares: Vec<(&'static str, f64)>,
}

const DYNAMIC_OPS: &[&str] = &["dynamic.insert", "dynamic.remove", "dynamic.color"];
const DURABLE_OPS: &[&str] = &["durable.insert", "durable.remove", "durable.color"];
const REGISTRY_OPS: &[&str] = &["registry.insert", "registry.remove", "registry.color"];
const ENGINE_PIECES: &[&str] = &[
    "engine.dense_build",
    "sparse.build",
    "parallel.sparse_build",
    "parallel.shards",
    "greedy.first_fit",
    "parallel.first_fit",
    "schedule.validate",
];

/// Per-cycle sums of the spans named `names`, over the solves of `kinds`;
/// the median over cycles.
fn per_cycle_ms(solves: &[Solve], spans: &[Span], names: &[&str], kinds: &[SolveKind]) -> f64 {
    let times = by_op(spans, names);
    let cycles = solves.iter().map(|s| s.cycle).max().map_or(0, |c| c + 1);
    let mut sums = vec![0.0; cycles];
    for (index, solve) in solves.iter().enumerate() {
        if kinds.contains(&solve.kind) {
            sums[solve.cycle] += *times.get(&solve_op_id(index)).unwrap_or(&0) as f64 * 1e-6;
        }
    }
    median(&sums)
}

/// Computes every per-layer metric and the share table.
#[allow(clippy::too_many_arguments)]
pub fn attribute(
    d: &Depths,
    scripts: &[Script],
    solves: &[Solve],
    dynamic: &[DynamicRun],
    durable: &[DurableRun],
    sparse_entries: usize,
    restart_ms: f64,
    overhead_pct: f64,
) -> Attribution {
    let dyn_t = by_op(&d.dynamic, DYNAMIC_OPS);
    let dur_t = by_op(&d.durable, DURABLE_OPS);
    let reg_t = by_op(&d.registry, REGISTRY_OPS);
    let parse_t = by_op(&d.dispatch, &["protocol.parse"]);
    let disp_t = by_op(&d.dispatch, &["server.dispatch_line"]);
    let render_t = by_op(&d.dispatch, &["protocol.render"]);
    let wire_t = by_op(&d.wire, &["wire.rtt"]);
    let build_t = by_op(&d.solve, &["instances.build_family"]);
    let facade_t = by_op(&d.solve, &["scheduler.solve"]);
    let pieces_t = by_op(&d.solve, ENGINE_PIECES);
    let get = |m: &BTreeMap<u64, i64>, op: u64| *m.get(&op).unwrap_or(&0);

    // Per write op: the self time of each layer between wire and engine.
    let mut socket = Vec::new();
    let mut parse = Vec::new();
    let mut render = Vec::new();
    let mut dispatch = Vec::new();
    let mut handoff = Vec::new();
    // Shares over every op the depths decompose.
    let mut share: BTreeMap<&'static str, i64> = BTreeMap::new();
    let mut total = 0i64;
    for script in scripts {
        for (index, op) in script.ops.iter().enumerate() {
            let id = session_op_id(script.conn, index + 1);
            let (w, ds, pa, re, rg, du, dy) = (
                get(&wire_t, id),
                get(&disp_t, id),
                get(&parse_t, id),
                get(&render_t, id),
                get(&reg_t, id),
                get(&dur_t, id),
                get(&dyn_t, id),
            );
            if op.is_write() {
                socket.push((w - ds - re) as f64 * 1e-3);
                parse.push(pa as f64 * 1e-3);
                render.push(re as f64 * 1e-3);
                dispatch.push((ds - pa - rg) as f64 * 1e-3);
                handoff.push((rg - du) as f64 * 1e-3);
            }
            total += w;
            *share.entry("wire").or_default() += w - ds - re;
            *share.entry("protocol").or_default() += pa + re;
            *share.entry("server").or_default() += ds - pa - rg;
            *share.entry("session").or_default() += rg - du;
            *share.entry("durability").or_default() += du - dy;
            *share.entry("dynamic").or_default() += dy;
        }
    }
    for index in 0..solves.len() {
        let id = solve_op_id(index);
        let (w, ds, pa, re, b, f, p) = (
            get(&wire_t, id),
            get(&disp_t, id),
            get(&parse_t, id),
            get(&render_t, id),
            get(&build_t, id),
            get(&facade_t, id),
            get(&pieces_t, id),
        );
        total += w;
        *share.entry("wire").or_default() += w - ds - re;
        *share.entry("protocol").or_default() += pa + re;
        *share.entry("server").or_default() += ds - pa - b - f;
        *share.entry("instances").or_default() += b;
        *share.entry("scheduler").or_default() += f - p;
        *share.entry("engine").or_default() += p;
    }
    let attributed: i64 = share.values().sum();
    let pct = |ns: i64| {
        if total > 0 {
            ns as f64 * 100.0 / total as f64
        } else {
            0.0
        }
    };
    let mut shares: Vec<(&'static str, f64)> = share.iter().map(|(&k, &v)| (k, pct(v))).collect();
    shares.push(("unattributed", pct(total - attributed)));

    let us = |v: Vec<f64>| v.into_iter().map(|ns| ns * 1e-3).collect::<Vec<_>>();
    let append = us(durations(&d.durable, "durability.append"));
    let snapshot_ms: Vec<f64> = durations(&d.durable, "durability.snapshot")
        .iter()
        .map(|ns| ns * 1e-6)
        .collect();
    let insert = us(durations(&d.dynamic, "dynamic.insert"));
    let remove = us(durations(&d.dynamic, "dynamic.remove"));
    let sum = |f: fn(&DurableRun) -> u64| durable.iter().map(f).sum::<u64>() as f64;
    let events = sum(|r| r.events).max(1.0);
    let removes: usize = dynamic.iter().map(|r| r.removes).sum();
    let moves: usize = dynamic.iter().map(|r| r.moves).sum();
    let churn = |i: usize| dynamic.iter().map(|r| r.churn[i]).sum::<usize>() as f64;
    let backend_ms: Vec<f64> = dynamic
        .iter()
        .map(|r| r.session_backend_ns as f64 * 1e-6)
        .collect();
    let cycle = |names: &[&str], kinds: &[SolveKind]| per_cycle_ms(solves, &d.solve, names, kinds);
    let all = &SolveKind::ALL;
    let self_ms = {
        let facade = cycle(&["scheduler.solve"], all);
        let pieces = cycle(ENGINE_PIECES, all);
        facade - pieces
    };

    let metrics = vec![
        ("wire.socket_us", median(&socket), "us"),
        ("protocol.parse_us", median(&parse), "us"),
        ("protocol.render_us", median(&render), "us"),
        ("server.dispatch_us", median(&dispatch), "us"),
        ("session.handoff_us", median(&handoff), "us"),
        ("durability.append_us_p50", quantile(&append, 0.5), "us"),
        ("durability.append_us_p95", quantile(&append, 0.95), "us"),
        ("durability.snapshot_ms", median(&snapshot_ms), "ms"),
        (
            "durability.records_per_event",
            sum(|r| r.records) / events,
            "count",
        ),
        (
            "durability.wal_bytes_per_event",
            sum(|r| r.wal_bytes) / events,
            "bytes",
        ),
        ("durability.snapshots", sum(|r| r.snapshots), "count"),
        (
            "durability.snapshot_bytes",
            sum(|r| r.snapshot_bytes),
            "bytes",
        ),
        ("durability.recover_ms", sum(|r| r.recover_ns) * 1e-6, "ms"),
        ("daemon.recover_ms", restart_ms, "ms"),
        (
            "durability.tail_recover_failures",
            sum(|r| r.tail_recover_failures),
            "count",
        ),
        ("dynamic.insert_us_p50", quantile(&insert, 0.5), "us"),
        ("dynamic.insert_us_p95", quantile(&insert, 0.95), "us"),
        ("dynamic.remove_us_p50", quantile(&remove, 0.5), "us"),
        ("dynamic.remove_us_p95", quantile(&remove, 0.95), "us"),
        (
            "dynamic.recolor_moves_per_remove",
            moves as f64 / removes.max(1) as f64,
            "count",
        ),
        ("churn.materialized_rows", churn(0), "count"),
        ("churn.stored_entries", churn(1), "count"),
        ("churn.bytes", churn(2), "bytes"),
        ("scheduler.session_backend_ms", median(&backend_ms), "ms"),
        (
            "instances.build_family_ms",
            cycle(&["instances.build_family"], all),
            "ms",
        ),
        (
            "engine.dense_build_ms",
            cycle(&["engine.dense_build"], all),
            "ms",
        ),
        ("sparse.build_ms", cycle(&["sparse.build"], all), "ms"),
        ("sparse.stored_entries", sparse_entries as f64, "count"),
        (
            "greedy.first_fit_ms",
            cycle(&["greedy.first_fit"], all),
            "ms",
        ),
        ("parallel.shards_ms", cycle(&["parallel.shards"], all), "ms"),
        (
            "parallel.sparse_build_ms",
            cycle(&["parallel.sparse_build"], all),
            "ms",
        ),
        (
            "parallel.first_fit_ms",
            cycle(&["parallel.first_fit"], all),
            "ms",
        ),
        (
            "schedule.validate_ms",
            cycle(&["schedule.validate"], all),
            "ms",
        ),
        ("scheduler.solve_self_ms", self_ms, "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ];
    Attribution { metrics, shares }
}
