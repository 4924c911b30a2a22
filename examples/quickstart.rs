//! Quickstart: build a small wireless instance and schedule it through the
//! typed job API — one `SolveRequest` per run, all consumed by the single
//! `Scheduler::solve` entry point.
//!
//! Run with `cargo run --example quickstart`.

use oblisched::scheduler::Scheduler;
use oblisched::solve::{PowerAssignment, SolveRequest};
use oblisched_instances::{uniform_deployment, DeploymentConfig};
use oblisched_sinr::SinrParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 20 bidirectional communication requests in a 500 m × 500 m field, link
    // lengths between 1 m and 30 m — the MAC-layer scenario from the paper's
    // introduction.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let instance = uniform_deployment(
        DeploymentConfig {
            num_requests: 20,
            side: 500.0,
            min_link: 1.0,
            max_link: 30.0,
        },
        &mut rng,
    );

    // Physical model: path-loss exponent α = 3, SINR threshold β = 1.
    let params = SinrParams::new(3.0, 1.0)?;
    let scheduler = Scheduler::new(params);

    println!(
        "scheduling {} bidirectional requests (α = 3, β = 1)\n",
        instance.len()
    );
    println!(
        "{:<28} {:>8} {:>14}",
        "solve request", "colors", "total energy"
    );

    // Every run is a data value: the three classic oblivious assignments,
    // the paper's LP-rounding algorithm (Theorem 15) and the non-oblivious
    // power-control baseline differ only in the request.
    let requests = [
        SolveRequest::first_fit(PowerAssignment::Uniform),
        SolveRequest::first_fit(PowerAssignment::Linear),
        SolveRequest::first_fit(PowerAssignment::SquareRoot),
        SolveRequest::sqrt_coloring(42),
        SolveRequest::power_control(),
    ];
    for request in &requests {
        let result = scheduler.solve(&instance, request)?;
        println!(
            "{:<28} {:>8} {:>14.2}",
            result.label.to_string(),
            result.num_colors(),
            result.total_energy()
        );
    }

    // Requests serialize — the same runs, as wire-ready values. The
    // `oblisched-server` daemon's `solve` verb carries one per line.
    let as_json = serde_json::to_string(&requests[2])?;
    println!("\nthe square-root run as a wire request:\n  {as_json}");

    // Show one schedule in detail.
    let result = scheduler.solve(
        &instance,
        &SolveRequest::first_fit(PowerAssignment::SquareRoot),
    )?;
    println!("\nsquare-root schedule ({} colors):", result.num_colors());
    for (color, class) in result.schedule.classes().iter().enumerate() {
        println!("  slot {color}: requests {class:?}");
    }
    Ok(())
}
