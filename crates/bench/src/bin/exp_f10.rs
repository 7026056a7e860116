//! F10: consolidation headroom sweep.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F10", "Headroom sweep", bench::exp_f10)
}
