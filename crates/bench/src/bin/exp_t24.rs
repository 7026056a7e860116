//! T24: consolidation packing ablation.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T24", "Consolidation packing ablation", bench::exp_t24)
}
