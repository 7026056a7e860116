//! F23: one-week weekday/weekend run.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F23", "One-week weekday/weekend run", bench::exp_f23)
}
