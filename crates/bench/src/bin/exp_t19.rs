//! T19: seed-replicated policy summary (error bars on T5).
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T19", "Seed-replicated policy summary", bench::exp_t19)
}
