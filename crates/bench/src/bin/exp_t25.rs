//! T25: simulator phase profile.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T25", "Simulator phase profile", bench::exp_profile)
}
