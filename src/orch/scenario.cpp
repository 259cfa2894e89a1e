#include "orch/scenario.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/parse_util.hpp"

namespace trdse::orch {

namespace {

[[noreturn]] void fail(const std::string& source, std::size_t line,
                       const std::string& what) {
  throw std::invalid_argument("scenario " + source + ":" +
                              std::to_string(line) + ": " + what);
}

/// Strip comments (# to end of line) and surrounding whitespace.
std::string stripped(std::string s) {
  const std::size_t hash = s.find('#');
  if (hash != std::string::npos) s.erase(hash);
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::uint64_t parseU64(const std::string& source, std::size_t line,
                       const std::string& key, const std::string& value) {
  try {
    return common::parseU64("key \"" + key + "\"", value);
  } catch (const std::invalid_argument& e) {
    fail(source, line, e.what());
  }
}

bool parseBool(const std::string& source, std::size_t line,
               const std::string& key, const std::string& value) {
  try {
    return common::parseBool("key \"" + key + "\"", value);
  } catch (const std::invalid_argument& e) {
    fail(source, line, e.what());
  }
}

double parseF64(const std::string& source, std::size_t line,
                const std::string& key, const std::string& value) {
  try {
    return common::parseF64("key \"" + key + "\"", value);
  } catch (const std::invalid_argument& e) {
    fail(source, line, e.what());
  }
}

/// A wall-clock timeout in seconds: finite and >= 0 (0 = off). NaN would
/// compare false against every deadline and never round-trip through a
/// journal fingerprint, and inf overflows any clock.
double parseTimeout(const std::string& source, std::size_t line,
                    const std::string& key, const std::string& value) {
  const double seconds = parseF64(source, line, key, value);
  if (!std::isfinite(seconds) || seconds < 0.0)
    fail(source, line, key + " must be finite and >= 0, got " + value);
  return seconds;
}

}  // namespace

Scenario parseScenario(std::istream& in, const std::string& source) {
  Scenario sc;
  sc.sourceName = source;
  JobSpec* job = nullptr;  // nullptr while in the global section
  std::vector<std::size_t> jobLines;  // first line of each [job] block
  std::set<std::string> seenKeys;     // per-section duplicate guard
  std::size_t faultLine = 0;          // last fault_*/retry_* line seen
  std::string raw;
  std::size_t lineNo = 0;

  while (std::getline(in, raw)) {
    ++lineNo;
    const std::string line = stripped(raw);
    if (line.empty()) continue;

    if (line == "[job]") {
      sc.jobs.emplace_back();
      job = &sc.jobs.back();
      job->sourceLine = lineNo;
      jobLines.push_back(lineNo);
      seenKeys.clear();
      continue;
    }
    if (line.front() == '[')
      fail(source, lineNo, "unknown section \"" + line + "\" (only [job])");

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
      fail(source, lineNo, "expected key = value, got \"" + line + "\"");
    const std::string key = stripped(line.substr(0, eq));
    const std::string value = stripped(line.substr(eq + 1));
    if (key.empty() || value.empty())
      fail(source, lineNo, "empty key or value in \"" + line + "\"");
    // Strict parsing: a repeated key in the same section is a copy-paste
    // mistake, never a valid override (opt.* keys are covered too).
    if (!seenKeys.insert(key).second)
      fail(source, lineNo, "duplicate key \"" + key + "\"");

    if (job == nullptr) {
      if (key == "name") sc.name = value;
      else if (key == "threads") sc.threads = parseU64(source, lineNo, key, value);
      else if (key == "workers") sc.workers = parseU64(source, lineNo, key, value);
      else if (key == "worker_timeout") {
        sc.workerTimeoutSeconds = parseTimeout(source, lineNo, key, value);
        // The round deadline is a steady_clock time point.
        using Clock = std::chrono::steady_clock;
        if (!(sc.workerTimeoutSeconds <
              std::chrono::duration<double>(Clock::duration::max()).count()))
          fail(source, lineNo,
               "worker_timeout " + value + " is too large for steady_clock");
      }
      else if (key == "slice") sc.slice = parseU64(source, lineNo, key, value);
      else if (key == "shared_cache") sc.sharedCache = parseBool(source, lineNo, key, value);
      else if (key == "shards") sc.cacheShards = parseU64(source, lineNo, key, value);
      else if (key == "base_seed") sc.baseSeed = parseU64(source, lineNo, key, value);
      else if (key == "fault_seed") {
        sc.faultPlan.seed = parseU64(source, lineNo, key, value);
        faultLine = lineNo;
      } else if (key == "fault_timeout") {
        sc.faultPlan.timeoutRate = parseF64(source, lineNo, key, value);
        faultLine = lineNo;
      } else if (key == "fault_nonconv") {
        sc.faultPlan.nonConvergenceRate = parseF64(source, lineNo, key, value);
        faultLine = lineNo;
      } else if (key == "fault_nonfinite") {
        sc.faultPlan.nonFiniteRate = parseF64(source, lineNo, key, value);
        faultLine = lineNo;
      } else if (key == "fault_timeout_stall") {
        sc.faultPlan.timeoutStallSeconds = parseF64(source, lineNo, key, value);
        faultLine = lineNo;
      } else if (key == "retry_attempts") {
        sc.retry.maxAttempts = parseU64(source, lineNo, key, value);
        if (sc.retry.maxAttempts == 0 ||
            sc.retry.maxAttempts > kMaxRetryAttempts)
          fail(source, lineNo,
               "retry_attempts must be in [1, " +
                   std::to_string(kMaxRetryAttempts) + "], got " + value);
      } else if (key == "retry_backoff") {
        sc.retry.backoffBase = parseU64(source, lineNo, key, value);
      } else if (key == "retry_backoff_cap") {
        sc.retry.backoffCap = parseU64(source, lineNo, key, value);
      } else if (key == "retry_timeout") {
        sc.retry.timeoutSeconds = parseTimeout(source, lineNo, key, value);
      } else if (key == "journal") {
        sc.journalPath = value;
      } else
        fail(source, lineNo,
             "unknown scenario key \"" + key +
                 "\" (known: name, threads, workers, worker_timeout, slice, "
                 "shared_cache, shards, base_seed, fault_seed, "
                 "fault_timeout, fault_nonconv, "
                 "fault_nonfinite, fault_timeout_stall, retry_attempts, "
                 "retry_backoff, retry_backoff_cap, retry_timeout, journal)");
      continue;
    }

    if (key == "name") job->name = value;
    else if (key == "circuit") job->circuit = value;
    else if (key == "strategy") job->strategy = value;
    else if (key == "cache_scope") job->cacheScope = value;
    else if (key == "seed") job->seed = parseU64(source, lineNo, key, value);
    else if (key == "budget") job->budget = parseU64(source, lineNo, key, value);
    else if (key == "max_failures")
      job->maxFailures = parseU64(source, lineNo, key, value);
    else if (key.rfind("opt.", 0) == 0) {
      const std::string optKey = key.substr(4);
      if (optKey.empty()) fail(source, lineNo, "empty option key \"opt.\"");
      job->options.emplace(optKey, value);
    } else {
      fail(source, lineNo,
           "unknown job key \"" + key +
               "\" (known: name, circuit, strategy, cache_scope, seed, "
               "budget, max_failures, opt.<option>)");
    }
  }

  // ---- Cross-field validation (errors point at the job's [job] line) ----
  if (sc.slice == 0) fail(source, lineNo, "slice must be positive");
  if (sc.jobs.empty()) fail(source, lineNo, "scenario defines no [job]");
  try {
    sim::FaultPlan validate(sc.faultPlan);  // rate-range + sum check
    (void)validate;
  } catch (const std::invalid_argument& e) {
    fail(source, faultLine == 0 ? lineNo : faultLine, e.what());
  }
  for (std::size_t i = 0; i < sc.jobs.size(); ++i) {
    JobSpec& j = sc.jobs[i];
    const std::size_t at = jobLines[i];
    const std::string label = "job " + std::to_string(i + 1);
    if (j.name.empty()) j.name = "job" + std::to_string(i + 1);
    if (j.circuit.empty() && !j.makeProblem)
      fail(source, at, label + " (\"" + j.name + "\") has no circuit");
    if (j.strategy.empty())
      fail(source, at, label + " (\"" + j.name + "\") has no strategy");
    if (j.budget == 0)
      fail(source, at, label + " (\"" + j.name + "\") has zero budget");
    for (std::size_t k = 0; k < i; ++k)
      if (sc.jobs[k].name == j.name)
        fail(source, at, "duplicate job name \"" + j.name + "\"");
  }
  return sc;
}

Scenario parseScenarioText(const std::string& text, const std::string& source) {
  std::istringstream in(text);
  return parseScenario(in, source);
}

Scenario loadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::invalid_argument("scenario file \"" + path +
                                "\" cannot be opened");
  return parseScenario(in, path);
}

}  // namespace trdse::orch
