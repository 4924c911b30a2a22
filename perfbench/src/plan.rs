//! The three workloads and everything derived from a seed: churn traces,
//! the exact request sequence each connection sends, and the solve cycles.
//!
//! Every workload has a fixed op count, so the outputs it is checked
//! against (fingerprints, colors) are pure functions of the seed. A run
//! repeats the same ops in rounds, each on a fresh daemon, until its time
//! is up.

use oblisched::solve::{PowerAssignment, SolveRequest};
use oblisched_instances::{churn_trace_for, ChurnEvent, Family};
use oblisched_server::protocol::{
    IdRef, ItemRef, OpenSpec, SessionVerb, SolveJob, StatsSpec, WireRequest,
};
use oblisched_sinr::Variant;
use std::collections::BTreeMap;

/// Durable sessions driven in a closed loop, one per connection.
#[derive(Debug, Clone, Copy)]
pub struct SessionPlan {
    /// Connections, each driving its own session.
    pub connections: usize,
    /// Universe size of every session.
    pub universe: usize,
    /// Live-count target of every churn trace.
    pub target_live: usize,
    /// Churn events per connection.
    pub events: usize,
    /// A `color` read after every this-many events.
    pub color_every: usize,
    /// Snapshot cadence of every session; `None` for the durable default.
    pub checkpoint_every: Option<usize>,
}

/// Cycles of three batch solves, one of each kind; family seeds advance
/// every cycle.
#[derive(Debug, Clone, Copy)]
pub struct SolvePlan {
    /// Distinct cycles.
    pub cycles: usize,
    /// Cycles each round runs, taking turns: round `r` runs cycles
    /// `r * per_round ..` modulo `cycles`.
    pub per_round: usize,
    /// Size of the dense-tier first-fit solve.
    pub dense_n: usize,
    /// Size of the sparse first-fit and the parallel solves.
    pub sparse_n: usize,
}

/// One benchmark workload: sessions plus solves, in the proportions that
/// make one layer dominate.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// The session part.
    pub sessions: SessionPlan,
    /// The solve part.
    pub solves: SolvePlan,
}

/// The small solve cycle the session workloads run after their sessions,
/// so that every workload reports every metric; at n = 400 the sparse and
/// parallel kinds are forced off the dense tier by a zero matrix budget.
const SIDE_SOLVES: SolvePlan = SolvePlan {
    cycles: 4,
    per_round: 4,
    dense_n: 400,
    sparse_n: 400,
};

/// The small dense sessions `batch_solve` runs before its solves: the shape
/// of `session_small`, shorter. With a single connection the round trips
/// of a round took either about 30 or about 45 µs, from daemon to daemon.
/// They snapshot only when created: at the default cadence a snapshot's
/// `sync_data` every 64 events halved their events per second whenever the
/// host's disk was busy, which no part of this workload is about.
const SIDE_SESSIONS: SessionPlan = SessionPlan {
    connections: 2,
    universe: 400,
    target_live: 120,
    events: 2000,
    color_every: 16,
    checkpoint_every: Some(4096),
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "session_small",
        sessions: SessionPlan {
            connections: 2,
            universe: 400,
            target_live: 120,
            events: 6000,
            color_every: 16,
            checkpoint_every: None,
        },
        solves: SIDE_SOLVES,
    },
    Workload {
        name: "session_large",
        sessions: SessionPlan {
            connections: 2,
            universe: 10_000,
            target_live: 2500,
            // A multiple of the checkpoint cadence: the kill lands right
            // after a snapshot, so recovery has no log tail to replay (see
            // `durability.tail_recover_failures` for why).
            events: 5120,
            color_every: 16,
            checkpoint_every: None,
        },
        solves: SIDE_SOLVES,
    },
    Workload {
        name: "batch_solve",
        sessions: SIDE_SESSIONS,
        // One cycle per round, taking turns over three instances: short
        // rounds give the fastest-tenth statistics enough rounds, and the
        // daemon's peak memory, which depends on the instance, is not left
        // to a single one.
        solves: SolvePlan {
            cycles: 3,
            per_round: 1,
            dense_n: 2000,
            sparse_n: 10_000,
        },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// Trace sets of a run. Rounds take turns over them, so that a run's
/// figures do not rest on one instance per connection: replayed in
/// process, one seed's `session_large` trace ran about a tenth faster
/// than the others'.
pub const TRACE_SETS: usize = 3;

/// Family and trace seed of connection `conn` in trace set `set`.
pub fn session_seed(plan: &SessionPlan, seed: u64, set: usize, conn: usize) -> u64 {
    seed.wrapping_mul(1000)
        .wrapping_add((set * plan.connections + conn) as u64)
}

/// Family seed of solve cycle `cycle`.
pub fn cycle_seed(seed: u64, cycle: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(500 + cycle as u64)
}

/// Session name of connection `conn`.
pub fn session_name(conn: usize) -> String {
    format!("bench-{conn}")
}

/// One session op with its request id resolved in advance: ids are issued
/// sequentially from 0, so the id of every insert is known before the run
/// and the daemon's answer is checked against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert a universe item; the daemon must answer with `id`.
    Insert { item: usize, id: u64 },
    /// Remove the live request `id` (universe item `item`).
    Remove { item: usize, id: u64 },
    /// Read the color of the live request `id`.
    Color { id: u64 },
}

impl Op {
    /// Whether the op is a churn event (a write).
    pub fn is_write(self) -> bool {
        !matches!(self, Op::Color { .. })
    }
}

/// Everything one connection sends, in order.
#[derive(Debug, Clone)]
pub struct Script {
    /// Connection index.
    pub conn: usize,
    /// Session name.
    pub name: String,
    /// Family and trace seed.
    pub seed: u64,
    /// Universe size.
    pub universe: usize,
    /// Snapshot cadence; `None` for the durable default.
    pub checkpoint_every: Option<usize>,
    /// The ops, in order.
    pub ops: Vec<Op>,
}

impl Script {
    /// The `open` request of the session.
    pub fn open_spec(&self) -> OpenSpec {
        OpenSpec {
            name: self.name.clone(),
            family: Family::Scaling,
            n: self.universe,
            seed: self.seed,
            assignment: PowerAssignment::SquareRoot,
            variant: Variant::Bidirectional,
            params: None,
            config: None,
            checkpoint_every: self.checkpoint_every,
            backend: None,
        }
    }

    /// The wire request of op `op`.
    pub fn request(&self, op: Op) -> WireRequest {
        let name = self.name.clone();
        WireRequest::Session(match op {
            Op::Insert { item, .. } => SessionVerb::Insert(ItemRef { name, item }),
            Op::Remove { id, .. } => SessionVerb::Remove(IdRef { name, id }),
            Op::Color { id } => SessionVerb::Color(IdRef { name, id }),
        })
    }

    /// The `stats` request, certifying the coloring when `validate`.
    pub fn stats_request(&self, validate: bool) -> WireRequest {
        WireRequest::Session(SessionVerb::Stats(StatsSpec {
            name: self.name.clone(),
            validate: Some(validate),
        }))
    }

    /// Number of churn events.
    pub fn events(&self) -> usize {
        self.ops.iter().filter(|op| op.is_write()).count()
    }
}

/// The script of connection `conn` in trace set `set`: its churn trace
/// with a `color` read of the lowest live item after every `color_every`
/// events.
pub fn script(plan: &SessionPlan, seed: u64, set: usize, conn: usize) -> Script {
    let seed = session_seed(plan, seed, set, conn);
    let trace = churn_trace_for(plan.universe, plan.target_live, plan.events, seed);
    let mut live: BTreeMap<usize, u64> = BTreeMap::new();
    let mut next_id = 0u64;
    let mut ops = Vec::with_capacity(trace.len() + trace.len() / plan.color_every.max(1));
    for (position, event) in trace.events.iter().enumerate() {
        match *event {
            ChurnEvent::Arrive(item) => {
                live.insert(item, next_id);
                ops.push(Op::Insert { item, id: next_id });
                next_id += 1;
            }
            ChurnEvent::Depart(item) => {
                let id = live
                    .remove(&item)
                    .expect("generated traces only depart live items");
                ops.push(Op::Remove { item, id });
            }
        }
        if plan.color_every > 0 && (position + 1) % plan.color_every == 0 {
            if let Some(&id) = live.values().next() {
                ops.push(Op::Color { id });
            }
        }
    }
    Script {
        conn,
        name: session_name(conn),
        seed,
        universe: plan.universe,
        checkpoint_every: plan.checkpoint_every,
        ops,
    }
}

/// The three solve kinds of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveKind {
    /// First-fit on the dense tier.
    Dense,
    /// First-fit on the sparse tier: sparse build plus serial first-fit.
    Sparse,
    /// Tile shards on two threads plus the conflict-repair merge.
    Parallel,
}

impl SolveKind {
    /// All kinds, in cycle order.
    pub const ALL: [SolveKind; 3] = [SolveKind::Dense, SolveKind::Sparse, SolveKind::Parallel];

    /// Index in [`SolveKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short name.
    pub fn label(self) -> &'static str {
        match self {
            SolveKind::Dense => "dense",
            SolveKind::Sparse => "sparse",
            SolveKind::Parallel => "parallel",
        }
    }
}

/// Worker threads of the parallel solve (the host has two cores).
pub const PARALLEL_THREADS: usize = 2;

/// One solve of a cycle.
#[derive(Debug, Clone, Copy)]
pub struct Solve {
    /// Cycle index.
    pub cycle: usize,
    /// Solve kind.
    pub kind: SolveKind,
    /// The wire job.
    pub job: SolveJob,
}

/// Every solve of every cycle, cycle by cycle.
pub fn solves(plan: &SolvePlan, seed: u64) -> Vec<Solve> {
    let mut out = Vec::with_capacity(plan.cycles * SolveKind::ALL.len());
    for cycle in 0..plan.cycles {
        for kind in SolveKind::ALL {
            let (n, request) = match kind {
                SolveKind::Dense => (
                    plan.dense_n,
                    SolveRequest::first_fit(PowerAssignment::SquareRoot),
                ),
                SolveKind::Sparse => (
                    plan.sparse_n,
                    SolveRequest::first_fit(PowerAssignment::SquareRoot).with_matrix_budget(0),
                ),
                SolveKind::Parallel => (
                    plan.sparse_n,
                    SolveRequest::parallel(PowerAssignment::SquareRoot, PARALLEL_THREADS)
                        .with_matrix_budget(0),
                ),
            };
            out.push(Solve {
                cycle,
                kind,
                job: SolveJob {
                    family: Family::Scaling,
                    n,
                    seed: cycle_seed(seed, cycle),
                    request,
                    params: None,
                },
            });
        }
    }
    out
}

/// Op id of session op `index` on connection `conn`; the `open` is index 0
/// and the final `stats` follows the last op.
pub fn session_op_id(conn: usize, index: usize) -> u64 {
    ((conn as u64) << 32) | index as u64
}

/// Op id of solve `index` of a round (disjoint from session op ids).
pub fn solve_op_id(index: usize) -> u64 {
    (1u64 << 48) | index as u64
}

/// The cycles round `round` runs.
pub fn round_cycles(plan: &SolvePlan, round: usize) -> Vec<usize> {
    (0..plan.per_round)
        .map(|i| (round * plan.per_round + i) % plan.cycles)
        .collect()
}
