// benchkit/cli.hpp — minimal flag parsing shared by the bench binaries.
//
// Every bench accepts:
//   --quick           fewer lookups/trials (default)
//   --full            paper-scale counts (minutes per bench)
//   --lookups=N       override the per-measurement lookup count
//   --trials=N        override the trial count (paper: 10)
//   --seed=N          override workload seeds
//   --json-out=FILE   write benchkit::JsonRecords to FILE (benchctl's hook)
// plus bench-specific flags documented in each binary's --help.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace benchkit {

/// Parsed command line. Flags are "--name", "--name=value", or
/// "--name value" (the separate-token form is normalized at construction).
class Args {
public:
    Args(int argc, char** argv);

    /// True if "--name" (with or without value) was passed.
    [[nodiscard]] bool has(std::string_view name) const;

    /// Value of "--name=value", or `fallback` when the flag is absent. A
    /// flag given without a value, or a numeric one whose value does not
    /// parse, also yields `fallback`, and is remembered for check().
    [[nodiscard]] std::uint64_t get_u64(std::string_view name, std::uint64_t fallback) const;
    [[nodiscard]] double get_double(std::string_view name, double fallback) const;
    [[nodiscard]] std::string get(std::string_view name, std::string fallback) const;

    /// Standard scale handling: returns `quick` unless --full, then `full`;
    /// --lookups overrides both.
    [[nodiscard]] std::size_t lookups(std::size_t quick, std::size_t full) const;
    /// Trials: 3 quick / 10 full, overridable with --trials.
    [[nodiscard]] unsigned trials() const;
    [[nodiscard]] std::uint64_t seed(std::uint64_t fallback = 0) const;

    /// Path from --json-out=FILE, or empty when the flag is absent. Benches
    /// that support it emit their JsonRecords there for benchctl.
    [[nodiscard]] std::string json_out() const { return get("json-out", ""); }

    /// Prints standard usage plus `extra` and returns true if --help given.
    bool handle_help(std::string_view bench_name, std::string_view extra = {}) const;

    /// Validates the command line once every flag has been read: each
    /// argument must be "--name" or "--name=value" with `name` in `known` or
    /// among the standard flags above, and no get/get_u64/get_double call
    /// may have met a missing or malformed value. Returns the first problem as a message
    /// that names the flag, or an empty string when the line is clean.
    [[nodiscard]] std::string check(std::initializer_list<std::string_view> known) const;

private:
    /// get_u64/get_double: parses --name as a T, recording an unparsable
    /// value in malformed_.
    template <class T>
    T parse_number(std::string_view name, T fallback) const;

    std::vector<std::string> args_;
    // Written by the const getters: a malformed value is found where it is
    // parsed, and reported by check() after the caller's option block.
    mutable std::vector<std::string> malformed_;
};

}  // namespace benchkit
