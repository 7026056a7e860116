//! T5: policy summary table.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T5", "Policy energy/performance summary", || {
        bench::exp_f4_t5().1
    })
}
