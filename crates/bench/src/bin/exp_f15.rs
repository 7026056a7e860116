//! F15: heterogeneous fleet (racks + blades).
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F15", "Heterogeneous fleet", bench::exp_f15)
}
