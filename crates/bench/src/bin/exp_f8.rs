//! F8: scale-out sweep.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F8", "Scale-out", bench::exp_f8)
}
