#include "benchkit/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iterator>

namespace benchkit {
namespace {

std::string_view value_of(const std::string& arg, std::string_view name)
{
    // arg is "--name=value" or "--name"; name is passed without dashes.
    if (arg.size() < name.size() + 2 || arg[0] != '-' || arg[1] != '-') return {};
    const std::string_view body{arg.data() + 2, arg.size() - 2};
    if (!body.starts_with(name)) return {};
    if (body.size() == name.size()) return "";  // present, no value
    if (body[name.size()] != '=') return {};
    return body.substr(name.size() + 1);
}

}  // namespace

Args::Args(int argc, char** argv)
{
    // "--name value" is normalized to "--name=value": a bare "--name"
    // followed by a token that is not itself a flag takes it as the value.
    // No bench or tool takes positional arguments, so this is unambiguous.
    for (int i = 1; i < argc; ++i) {
        std::string arg{argv[i]};
        if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-' &&
            arg.find('=') == std::string::npos && i + 1 < argc &&
            argv[i + 1][0] != '-') {
            arg += '=';
            arg += argv[++i];
        }
        args_.push_back(std::move(arg));
    }
}

bool Args::has(std::string_view name) const
{
    for (const auto& a : args_)
        if (value_of(a, name).data() != nullptr) return true;
    return false;
}

std::string Args::get(std::string_view name, std::string fallback) const
{
    for (const auto& a : args_) {
        const auto v = value_of(a, name);
        if (v.data() != nullptr && !v.empty()) return std::string{v};
    }
    if (has(name)) malformed_.push_back("missing value for --" + std::string{name});
    return fallback;
}

template <class T>
T Args::parse_number(std::string_view name, T fallback) const
{
    const auto s = get(name, "");
    if (s.empty()) return fallback;
    T v = 0;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec == std::errc{} && p == s.data() + s.size()) return v;
    malformed_.push_back("malformed value '" + s + "' for --" + std::string{name});
    return fallback;
}

std::uint64_t Args::get_u64(std::string_view name, std::uint64_t fallback) const
{
    return parse_number(name, fallback);
}

double Args::get_double(std::string_view name, double fallback) const
{
    return parse_number(name, fallback);
}

std::size_t Args::lookups(std::size_t quick, std::size_t full) const
{
    const auto base = has("full") ? full : quick;
    return static_cast<std::size_t>(get_u64("lookups", base));
}

unsigned Args::trials() const
{
    const unsigned base = has("full") ? 10 : 3;
    return static_cast<unsigned>(get_u64("trials", base));
}

std::uint64_t Args::seed(std::uint64_t fallback) const { return get_u64("seed", fallback); }

bool Args::handle_help(std::string_view bench_name, std::string_view extra) const
{
    if (!has("help")) return false;
    std::printf("%.*s — Poptrie reproduction bench\n"
                "  --quick (default) | --full   measurement scale\n"
                "  --lookups=N  --trials=N  --seed=N\n"
                "  --json-out=FILE  write machine-readable records (benchctl)\n",
                static_cast<int>(bench_name.size()), bench_name.data());
    if (!extra.empty())
        std::printf("%.*s\n", static_cast<int>(extra.size()), extra.data());
    return true;
}

std::string Args::check(std::initializer_list<std::string_view> known) const
{
    constexpr std::string_view kStandard[] = {"help",   "quick", "full",    "lookups",
                                              "trials", "seed",  "json-out"};
    for (const auto& a : args_) {
        const std::string_view body =
            a.starts_with("--") ? std::string_view{a}.substr(2) : std::string_view{};
        const std::string_view name = body.substr(0, body.find('='));
        const auto is = [name](std::string_view k) { return k == name; };
        const bool ok = !name.empty() && (std::any_of(known.begin(), known.end(), is) ||
                                          std::any_of(std::begin(kStandard),
                                                      std::end(kStandard), is));
        if (!ok) return "unknown option '" + a + "'";
    }
    return malformed_.empty() ? std::string{} : malformed_.front();
}

}  // namespace benchkit
