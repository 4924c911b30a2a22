//! End-to-end benchmark of the `oblisched-server` daemon.
//!
//! ```text
//! perfbench --server PATH --workload session_small|session_large|batch_solve
//!           --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! With `--trace 0` it drives the real daemon over loopback in rounds until
//! `--seconds` have passed and reports the end-to-end metrics. With
//! `--trace 1` it replays the same seed once at each depth — bare
//! `DynamicScheduler`, `DurableScheduler`, `SessionRegistry`,
//! `Server::dispatch_line`, the wire — and reports per-layer metrics, the
//! share of each layer and the tracing overhead. Either way every output
//! is checked against an in-process replay; the last stdout line is the
//! JSON result, and the details go to `--out` (default `.bench_out`).

mod attrib;
mod check;
mod daemon;
mod layers;
mod plan;
mod trace;
mod wire;

use check::Tally;
use plan::{Script, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use trace::{median, middle_mean, quantile, Tracer};

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    plan::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value()? == "1"),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Host and build facts recorded with every result.
fn host_facts(args: &Args) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"rustc\":\"{}\",\"profile\":\"{profile}\",\"commit\":\"{}\",\
         \"source_digest\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_SOURCE_DIGEST"),
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// Every round's inputs with the reference answers: the dynamic depth
/// untraced for each trace set, and `Scheduler::solve` in process.
fn reference(sets: Vec<Vec<Script>>, solves: &[plan::Solve]) -> Result<Vec<wire::Inputs>, String> {
    let mut tally = Tally::default();
    let colors = solves
        .iter()
        .enumerate()
        .map(|(index, solve)| layers::solve_depth(index, solve, None, &mut tally).map(|(c, _)| c))
        .collect::<Result<Vec<_>, _>>()?;
    let mut inputs = Vec::with_capacity(sets.len());
    for scripts in sets {
        let (runs, _) =
            layers::per_script(&scripts, |script, _| layers::dynamic_depth(script, None));
        let fingerprints = runs
            .into_iter()
            .map(|run| run.map(|r| r.fingerprint))
            .collect::<Result<Vec<_>, _>>()?;
        inputs.push(wire::Inputs::new(
            scripts,
            solves.to_vec(),
            fingerprints,
            colors.clone(),
        ));
    }
    Ok(inputs)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Set-ups timed alone at the start of every untraced run.
const SETUP_PROBES: usize = 10;

fn end_to_end(
    args: &Args,
    run_dir: &Path,
    inputs: &[wire::Inputs],
    tally: &mut Tally,
    log: &mut String,
) -> Result<Metrics, String> {
    let start_ns = trace::now_ns();
    let deadline = start_ns + (args.seconds * 1e9) as u64;
    // Set-up alone, several times: these and the rounds' set-ups give
    // `setup_s`, and the first ones warm the page cache and the allocator
    // before any round is timed.
    let mut setups = Vec::with_capacity(SETUP_PROBES);
    for probe in 0..SETUP_PROBES {
        let dir = run_dir.join(format!("setup-{probe}"));
        let set = &inputs[probe % inputs.len()];
        setups.push(wire::setup_only(&args.server, &dir, set, tally)?);
    }
    let plan = &args.workload.solves;
    // Enough rounds to send every cycle and every trace set once, then
    // until time is up. The first round of each set is the checked one.
    let min_rounds = plan.cycles.div_ceil(plan.per_round).max(inputs.len());
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || trace::now_ns() < deadline {
        let dir = run_dir.join(format!("round-{}", rounds.len()));
        let cycles = plan::round_cycles(plan, rounds.len());
        let check = rounds.len() < inputs.len();
        rounds.push(wire::round(
            &args.server,
            &dir,
            &inputs[rounds.len() % inputs.len()],
            &cycles,
            false,
            check,
            tally,
        )?);
    }
    // Other tenants of the host slow whole stretches of seconds down, so
    // rounds and solves come in a fast and a slow kind, and now and then
    // one stalls. Each figure is therefore the mean of the middle half of
    // its per-round values (of its samples, for solves and set-ups): it
    // moves smoothly with the share of slow ones, where a median of a few
    // jumps from one kind to the other as that share crosses a half, and a
    // stall does not reach it, where it would reach a pooled figure.
    let per_round = |f: &dyn Fn(&wire::Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let pooled = |f: fn(&wire::Round) -> &Vec<f64>| {
        rounds
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<_>>()
    };
    setups.extend(per_round(&|r| r.setup_s));
    let round_p50: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.4}", median(&r.write_ms)))
        .collect();
    let _ = writeln!(log, "per-round write p50 ms: {}", round_p50.join(" "));
    // Every solve sent was checked against the reference; colors add up the
    // sessions of every trace set and one answer for each solve of every
    // cycle.
    let solve_colors: std::collections::BTreeMap<usize, usize> = rounds
        .iter()
        .flat_map(|r| r.solve_colors.iter().copied())
        .collect();
    let session_colors: usize = rounds[..inputs.len()].iter().map(|r| r.colors).sum();
    let colors = session_colors + solve_colors.values().sum::<usize>();
    let (writes, reads) = (pooled(|r| &r.write_ms), pooled(|r| &r.read_ms));
    let round_mean = |f: &dyn Fn(&wire::Round) -> f64| middle_mean(&per_round(f));
    let _ = writeln!(
        log,
        "rounds {} ({} pinned) in {:.1} s | setups {} | writes {} (pooled p99 {:.4} ms) \
         | reads {} (pooled p99 {:.4} ms) | solves/kind {} | daemon threads {} \
         | restart after kill {:.4} s (not gated)",
        rounds.len(),
        rounds.iter().filter(|r| r.pinned).count(),
        trace::secs(start_ns, trace::now_ns()),
        setups.len(),
        writes.len(),
        quantile(&writes, 0.99),
        reads.len(),
        quantile(&reads, 0.99),
        pooled(|r| &r.solve_ms[0]).len(),
        rounds[0].daemon_threads,
        median(
            &rounds[..inputs.len()]
                .iter()
                .map(|r| r.recover_s)
                .collect::<Vec<_>>()
        ),
    );
    Ok(vec![
        ("setup_s", middle_mean(&setups), "s"),
        ("events_per_s", round_mean(&|r| r.events_per_s), "1/s"),
        ("write_p50_ms", round_mean(&|r| median(&r.write_ms)), "ms"),
        (
            "write_p95_ms",
            round_mean(&|r| quantile(&r.write_ms, 0.95)),
            "ms",
        ),
        ("read_p50_ms", round_mean(&|r| median(&r.read_ms)), "ms"),
        (
            "solve_dense_ms",
            middle_mean(&pooled(|r| &r.solve_ms[0])),
            "ms",
        ),
        (
            "solve_sparse_ms",
            middle_mean(&pooled(|r| &r.solve_ms[1])),
            "ms",
        ),
        (
            "solve_parallel_ms",
            middle_mean(&pooled(|r| &r.solve_ms[2])),
            "ms",
        ),
        ("colors", colors as f64, "count"),
        // Rounds take turns over instances of different footprints: the
        // lowest peak is that of one instance, whichever rounds ran.
        (
            "peak_rss_mib",
            per_round(&|r| r.peak_rss_mib)
                .into_iter()
                .fold(f64::INFINITY, f64::min),
            "MiB",
        ),
    ])
}

fn traced_run(
    args: &Args,
    run_dir: &Path,
    scripts: &[Script],
    solves: &[plan::Solve],
    tally: &mut Tally,
    log: &mut String,
) -> Result<(Metrics, String), String> {
    // Depth 1: bare dynamic schedulers (the reference) and the solve pieces.
    let (dynamic, dynamic_spans) = layers::per_script(scripts, |script, tracer| {
        layers::dynamic_depth(script, Some(tracer))
    });
    let dynamic = dynamic.into_iter().collect::<Result<Vec<_>, _>>()?;
    let fingerprints: Vec<u64> = dynamic.iter().map(|r| r.fingerprint).collect();
    let solve_tracer = Tracer::shared();
    let mut solve_colors = Vec::with_capacity(solves.len());
    let mut sparse_entries = 0;
    for (index, solve) in solves.iter().enumerate() {
        let (colors, entries) = layers::solve_depth(index, solve, Some(&solve_tracer), tally)?;
        solve_colors.push(colors);
        if solve.cycle == 0 {
            sparse_entries += entries;
        }
    }
    let solve_spans = solve_tracer.borrow_mut().take();

    // Depth 2: durable schedulers over the timing store.
    let (durable, durable_spans) = layers::per_script(scripts, |script, tracer| {
        let mut local = Tally::default();
        let dir = run_dir.join(format!("durable-{}", script.conn));
        let run =
            layers::durable_depth(script, &dir, fingerprints[script.conn], tracer, &mut local);
        (run, local)
    });
    let mut durable_runs = Vec::with_capacity(durable.len());
    for (run, local) in durable {
        durable_runs.push(run?);
        tally.merge(local);
    }

    // Depths 3 and 4: the registry and the dispatcher, in process.
    let inputs = wire::Inputs::new(
        scripts.to_vec(),
        solves.to_vec(),
        fingerprints,
        solve_colors,
    );
    let (registry_spans, t) = layers::registry_depth(
        scripts,
        &run_dir.join("registry"),
        &inputs.session_fingerprints,
    )?;
    tally.merge(t);
    let (dispatch_spans, t) = layers::dispatch_depth(
        scripts,
        &inputs.lines,
        solves,
        &inputs.solve_lines,
        &inputs.session_fingerprints,
        &inputs.solve_colors,
        &run_dir.join("dispatch"),
    )?;
    tally.merge(t);

    // Depth 5: the wire, once untraced and once traced.
    let all: Vec<usize> = (0..args.workload.solves.cycles).collect();
    let plain = wire::round(
        &args.server,
        &run_dir.join("wire-plain"),
        &inputs,
        &all,
        false,
        true,
        tally,
    )?;
    let traced = wire::round(
        &args.server,
        &run_dir.join("wire-traced"),
        &inputs,
        &all,
        true,
        true,
        tally,
    )?;
    // Per-op medians, so that a cold first round does not pass for overhead.
    let (plain_ms, traced_ms) = (median(&plain.write_ms), median(&traced.write_ms));
    let overhead_pct = (traced_ms - plain_ms) * 100.0 / plain_ms;
    let restart_ms = plain.recover_s.min(traced.recover_s) * 1e3;

    let depths = attrib::Depths {
        dynamic: dynamic_spans,
        solve: solve_spans,
        durable: durable_spans,
        registry: registry_spans,
        dispatch: dispatch_spans,
        wire: traced.spans,
    };
    let result = attrib::attribute(
        &depths,
        scripts,
        solves,
        &dynamic,
        &durable_runs,
        sparse_entries,
        restart_ms,
        overhead_pct,
    );
    let _ = writeln!(
        log,
        "traced end-to-end {:.3} ms, untraced {:.3} ms; write p50 traced {traced_ms:.4} ms, \
         untraced {plain_ms:.4} ms: tracing overhead {overhead_pct:+.2}%",
        traced.total_ns as f64 * 1e-6,
        plain.total_ns as f64 * 1e-6
    );
    let mut shares = String::from("share of traced end-to-end time:");
    for (layer, pct) in &result.shares {
        let _ = write!(shares, " {layer} {pct:.2}%");
    }
    let _ = writeln!(log, "{shares}");
    let spans = trace::spans_jsonl(&[
        ("dynamic", depths.dynamic),
        ("solve", depths.solve),
        ("durable", depths.durable),
        ("registry", depths.registry),
        ("dispatch", depths.dispatch),
        ("wire", depths.wire),
    ]);
    Ok((result.metrics, spans))
}

fn render_metrics(metrics: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn run(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    let mut sets: Vec<Vec<Script>> = (0..plan::TRACE_SETS)
        .map(|set| {
            (0..w.sessions.connections)
                .map(|conn| plan::script(&w.sessions, args.seed, set, conn))
                .collect()
        })
        .collect();
    let solves = plan::solves(&w.solves, args.seed);
    let run_dir =
        Path::new(".bench_run").join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;

    let mut tally = Tally::default();
    let mut log = String::new();
    let host = host_facts(args);
    let _ = writeln!(log, "host {host}");
    let (metrics, spans) = if args.trace {
        // The traced run replays the first trace set.
        let scripts = sets.swap_remove(0);
        traced_run(args, &run_dir, &scripts, &solves, &mut tally, &mut log)?
    } else {
        let inputs = reference(sets, &solves)?;
        (
            end_to_end(args, &run_dir, &inputs, &mut tally, &mut log)?,
            String::new(),
        )
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".bench_run");

    let control_ok = check::negative_control();
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = tally.failed == 0 && control_ok && finite;
    let _ = writeln!(
        log,
        "fail_ratio {} ({} failed of {} attempted) | negative control {}",
        tally.fail_ratio(),
        tally.failed,
        tally.attempted,
        if control_ok { "counted" } else { "NOT COUNTED" }
    );
    for note in &tally.notes {
        let _ = writeln!(log, "failure: {note}");
    }
    for (name, value, unit) in &metrics {
        let _ = writeln!(log, "{name:<34} {value:>16.6} {unit}");
    }
    let metrics: Metrics = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        render_metrics(&metrics)
    );

    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let record = format!("{{\"host\": {host}, \"result\": {result}}}\n");
    let write = |name: String, body: &str| {
        let path = args.out.join(name);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), &record)?;
    write(format!("{stem}.log"), &log)?;
    if !spans.is_empty() {
        write(format!("{stem}.spans.jsonl"), &spans)?;
    }
    print!("{log}");
    println!("{result}");
    Ok(())
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}
