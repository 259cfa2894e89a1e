#include "core/sizing_api.hpp"

#include <cmath>
#include <sstream>

#include "io/checkpoint.hpp"

namespace trdse::core {

ExplorerConfig autoSchedule(const SizingProblem& problem) {
  ExplorerConfig c;
  const std::size_t d = problem.space.dim();
  // More dimensions -> more initial coverage and more planning samples.
  c.initSamples = std::clamp<std::size_t>(d + 3, 10, 40);
  c.mcSamples = std::clamp<std::size_t>(90 * d, 400, 2000);
  c.restartAfter = std::clamp<std::size_t>(8 * d, 40, 150);
  c.surrogate =
      autoConfigure(d, problem.measurementNames.size());
  return c;
}

SizingSession::SizingSession(SizingProblem problem, SessionOptions options)
    : problem_(std::move(problem)), options_(std::move(options)) {}

SizingSession::~SizingSession() = default;
SizingSession::SizingSession(SizingSession&&) noexcept = default;
SizingSession& SizingSession::operator=(SizingSession&&) noexcept = default;

PvtSearch& SizingSession::ensureSearch() {
  if (!search_) {
    PvtSearchConfig cfg;
    cfg.strategy = options_.strategy;
    cfg.seed = options_.seed;
    cfg.explorer = options_.explorerOverride.has_value()
                       ? *options_.explorerOverride
                       : autoSchedule(problem_);
    search_ = std::make_unique<PvtSearch>(problem_, cfg);
  }
  return *search_;
}

void SizingSession::save(const std::string& path) {
  io::writeFileAtomic(path, ensureSearch().save());
}

void SizingSession::resume(const std::string& path) {
  ensureSearch().restore(io::readFileBytes(path), path);
}

SessionReport SizingSession::run() {
  SessionReport report;

  PvtSearch& search = ensureSearch();
  PvtSearchOutcome outcome = search.run(options_.maxSimulations);

  report.solved = outcome.solved;
  report.simulations = outcome.totalSims;
  report.sizes = outcome.sizes;
  report.cornerEvals = std::move(outcome.cornerEvals);
  report.ledger = std::move(outcome.ledger);
  report.evalStats = outcome.evalStats;
  if (problem_.area && !report.sizes.empty())
    report.areaEstimate = problem_.area(report.sizes);

  std::ostringstream os;
  os << "problem: " << problem_.name << "\n"
     << "strategy: " << toString(search.config().strategy) << "\n"
     << "solved: " << (report.solved ? "yes" : "no")
     << "  simulations: " << report.simulations << "\n";
  // EDA-block economics: the logical budget above vs what actually hit the
  // simulator.
  os << "eda blocks: " << report.evalStats.simulated << " simulated, "
     << report.evalStats.cacheHits << " cache hits ("
     << static_cast<int>(report.evalStats.hitRate() * 100.0 + 0.5)
     << "% hit rate, " << report.evalStats.blocksSaved()
     << " blocks saved)\n";
  if (report.solved) {
    os << "sizes:";
    for (std::size_t i = 0; i < report.sizes.size(); ++i)
      os << " " << problem_.space.param(i).name << "=" << report.sizes[i];
    os << "\n";
    if (problem_.area) os << "area: " << report.areaEstimate << "\n";
    for (std::size_t c = 0; c < report.cornerEvals.size(); ++c) {
      os << "corner " << problem_.corners[c].name() << ":";
      const auto& e = report.cornerEvals[c];
      if (!e.ok) {
        os << " (failed)";
      } else {
        for (std::size_t m = 0; m < e.measurements.size(); ++m)
          os << " " << problem_.measurementNames[m] << "=" << e.measurements[m];
      }
      os << "\n";
    }
  }
  report.summary = os.str();
  return report;
}

}  // namespace trdse::core
