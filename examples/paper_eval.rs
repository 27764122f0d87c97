//! Regenerate every table and figure of the paper's evaluation in one run
//! and print them in the published layout. This is the EXPERIMENTS.md
//! source of truth; the tests in `benchkit::report` hold each figure and
//! table to its published shape.
//!
//! Run with: `cargo run --release --example paper_eval [-- --quick]`
//!
//! `--quick` caps each cell at 20 tasks and shrinks the NL2ML table so the
//! whole thing finishes in well under a minute.

use benchkit::generate_bird_ext;
use benchkit::report::{fig5, privilege_experiment, table2};
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (limit, house_rows) = if quick {
        (Some(20), 2_000)
    } else {
        (None, 20_000)
    };
    println!(
        "mode: {} ({} BIRD-Ext tasks/cell, {house_rows}-row house table)\n",
        if quick { "quick" } else { "full" },
        limit.map_or("all".to_owned(), |l| l.to_string()),
    );

    let started = Instant::now();
    let bench = generate_bird_ext(42);
    println!(
        "BIRD-Ext generated: {} tasks over {} tables ({:.2?})\n",
        bench.tasks.len(),
        bench.template.table_names().len(),
        started.elapsed()
    );

    let t = Instant::now();
    let report = fig5(&bench, limit, 42);
    println!("{}  [{:.2?}]\n", report.render().trim_end(), t.elapsed());

    let t = Instant::now();
    let privilege = privilege_experiment(&bench, limit, 42);
    println!("{}", privilege.render_fig6());
    println!("{}", privilege.render_table1());
    for agent in ["GPT-4o", "Claude-4"] {
        let savings: Vec<String> = (2..5)
            .map(|cell| {
                format!(
                    "{:.0}%",
                    privilege.token_saving(agent, cell).unwrap_or(0.0) * 100.0
                )
            })
            .collect();
        println!(
            "{agent}: token savings on infeasible cells = {}",
            savings.join(", ")
        );
    }
    println!("[{:.2?}]\n", t.elapsed());

    let t = Instant::now();
    let table2_report = table2(house_rows, 20, limit, 42);
    println!(
        "{}  [{:.2?}]",
        table2_report.render().trim_end(),
        t.elapsed()
    );

    println!("\ntotal: {:.2?}", started.elapsed());
}
