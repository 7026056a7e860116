//! T9: management overhead vs base DRM.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T9", "Management overhead", bench::exp_t9)
}
