//! T1: power-state characterization table.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T1", "Power-state characterization", bench::exp_t1)
}
