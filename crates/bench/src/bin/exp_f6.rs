//! F6: energy-proportionality curves.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F6", "Energy proportionality", bench::exp_f6)
}
