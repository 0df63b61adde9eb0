//! Prints the scorecard of the paper's claims: per claim, the paper's
//! number, ours at fixed seeds, and whether the paper's relation holds.
//!
//! ```text
//! cargo run -p bench --release --bin paper_report
//! ```
//!
//! `tests/paper_claims.rs` pins every row this prints.

use bench::{Row, Status};

fn main() {
    let rows: [fn() -> Row; 14] = [
        bench::squid,
        bench::mozilla,
        bench::injected_overflows,
        bench::injected_dangling_iterative,
        bench::injected_dangling_cumulative,
        bench::patch_overhead,
        bench::collaborative,
        bench::fleet,
        bench::theorem_2,
        bench::theorem_3,
        bench::theorem_1,
        bench::ablation_m,
        bench::ablation_p,
        bench::ablation_deferral,
    ];
    println!("# The paper's claims, reproduced\n");
    println!("| § | claim | paper | ours | status |\n| --- | --- | --- | --- | --- |");
    let mut diverging = 0;
    for make in rows {
        let row = make();
        let status = match row.status {
            Status::Holds => "holds".to_string(),
            Status::Diverges(why) => format!("diverges: {why}"),
        };
        diverging += usize::from(row.status != Status::Holds);
        println!(
            "| {} | {} | {} | {} | {status} |",
            row.section, row.claim, row.paper, row.ours
        );
    }
    let total = rows.len();
    println!("\n{diverging} of {total} claims diverge from the paper");
}
