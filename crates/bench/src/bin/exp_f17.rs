//! F17: management-interval sweep (the agility axis).
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F17", "Management-interval sweep", bench::exp_f17)
}
