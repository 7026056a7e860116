//! F16: power-curve shape ablation.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F16", "Power-curve shape ablation", bench::exp_f16)
}
