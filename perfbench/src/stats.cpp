#include "stats.hpp"

#include "pipeline/report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

std::uint64_t digest(const std::vector<gesmc::edge_key_t>& keys) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const gesmc::edge_key_t key : keys) {
        for (unsigned byte = 0; byte < 8; ++byte) {
            h ^= (key >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

bool Tally::check(bool ok, const std::string& what) {
    if (!ok) {
        ++failed_;
        std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
    }
    return ok;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // Linux reports KiB
}

bool all_finite(const std::vector<Metric>& metrics) {
    return std::all_of(metrics.begin(), metrics.end(),
                       [](const Metric& m) { return std::isfinite(m.value); });
}

std::string result_line(const Tally& tally, const std::vector<Metric>& metrics) {
    const bool correct = tally.failed() == 0 && all_finite(metrics);
    std::ostringstream os;
    os << R"({"correct": )" << (correct ? "true" : "false")
       << R"(, "attempted": )" << tally.attempted() << R"(, "failed": )" << tally.failed()
       << R"(, "metrics": {)";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
        if (i > 0) os << ", ";
        gesmc::write_json_escaped(os, metrics[i].name);
        os << R"(: {"value": )" << value << R"(, "unit": )";
        gesmc::write_json_escaped(os, metrics[i].unit);
        os << "}";
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench
