//! F11: hysteresis sweep.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F11", "Hysteresis sweep", bench::exp_f11)
}
