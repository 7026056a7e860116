//! T26: savings-vs-SLO frontier for the joint sleep+speed ladder.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T26", "Savings-vs-SLO frontier", bench::exp_t26)
}
