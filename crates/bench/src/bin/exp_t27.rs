//! T27: distributed control-plane degradation frontier.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T27", "Control-plane degradation frontier", bench::exp_t27)
}
