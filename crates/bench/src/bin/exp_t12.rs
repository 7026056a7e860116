//! T12: predictor ablation.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T12", "Predictor ablation", bench::exp_t12)
}
