#include "src/workload/trace_io.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <iomanip>
#include <sstream>

#include "src/util/rng.h"

namespace fmoe {
namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream stream(line);
  while (std::getline(stream, cell, ',')) {
    // Trim surrounding whitespace.
    const size_t begin = cell.find_first_not_of(" \t\r");
    const size_t end = cell.find_last_not_of(" \t\r");
    cells.push_back(begin == std::string::npos ? "" : cell.substr(begin, end - begin + 1));
  }
  return cells;
}

// strtoll saturates on overflow; errno tells a saturated value from a real one.
bool ParseInt(const std::string& text, long long* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtoll(text.c_str(), &end, 10);
  return !text.empty() && *end == '\0' && errno != ERANGE;
}

bool ParseUint(const std::string& text, uint64_t* value) {
  char* end = nullptr;
  *value = std::strtoull(text.c_str(), &end, 10);
  return !text.empty() && *end == '\0';
}

bool ParseDouble(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0';
}

}  // namespace

TraceIoResult WriteTraceCsv(const std::vector<Request>& requests, std::ostream& out) {
  out << std::setprecision(17);  // Round-trippable doubles.
  out << "request_id,arrival_time_s,prompt_tokens,decode_tokens,cluster,seed\n";
  TraceIoResult result;
  for (const Request& request : requests) {
    out << request.id << "," << request.arrival_time << "," << request.prompt_tokens << ","
        << request.decode_tokens << "," << request.routing.cluster << ","
        << request.routing.seed << "\n";
    ++result.rows;
  }
  if (!out) {
    return TraceIoResult::Failure("write failed");
  }
  return result;
}

TraceIoResult ReadTraceCsv(std::istream& in, const DatasetProfile& profile,
                           std::vector<Request>* requests) {
  std::string line;
  if (!std::getline(in, line)) {
    return TraceIoResult::Failure("empty input (missing header)");
  }
  const std::vector<std::string> header = SplitCsvLine(line);
  std::map<std::string, size_t> columns;
  for (size_t i = 0; i < header.size(); ++i) {
    columns[header[i]] = i;
  }
  for (const char* required :
       {"request_id", "arrival_time_s", "prompt_tokens", "decode_tokens"}) {
    if (!columns.contains(required)) {
      return TraceIoResult::Failure(std::string("missing required column: ") + required);
    }
  }

  std::vector<Request> staged;
  size_t line_number = 1;
  double previous_arrival = -1.0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line == "\r") {
      continue;
    }
    const std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() < header.size()) {
      return TraceIoResult::Failure("line " + std::to_string(line_number) +
                                    ": expected " + std::to_string(header.size()) +
                                    " columns, got " + std::to_string(cells.size()));
    }
    auto cell = [&](const char* name) { return cells[columns.at(name)]; };

    Request request;
    long long id = 0;
    long long prompt = 0;
    long long decode = 0;
    double arrival = 0.0;
    if (!ParseInt(cell("request_id"), &id) || !ParseDouble(cell("arrival_time_s"), &arrival) ||
        !ParseInt(cell("prompt_tokens"), &prompt) ||
        !ParseInt(cell("decode_tokens"), &decode)) {
      return TraceIoResult::Failure("line " + std::to_string(line_number) +
                                    ": malformed numeric field");
    }
    // Arrivals must be finite (strtod accepts nan/inf), and token counts must fit the int
    // fields they are stored in.
    if (id < 0 || prompt <= 0 || prompt > INT_MAX || decode < 0 || decode > INT_MAX ||
        !std::isfinite(arrival) || arrival < 0.0) {
      return TraceIoResult::Failure("line " + std::to_string(line_number) +
                                    ": out-of-range value");
    }
    if (arrival < previous_arrival) {
      return TraceIoResult::Failure("line " + std::to_string(line_number) +
                                    ": arrivals must be non-decreasing");
    }
    previous_arrival = arrival;

    request.id = static_cast<uint64_t>(id);
    request.arrival_time = arrival;
    request.prompt_tokens = static_cast<int>(prompt);
    request.decode_tokens = static_cast<int>(decode);

    // Routing: explicit columns if present, deterministic defaults otherwise.
    long long cluster = -1;
    if (columns.contains("cluster") && ParseInt(cells[columns.at("cluster")], &cluster) &&
        cluster >= 0) {
      request.routing.cluster = static_cast<int>(cluster % profile.num_clusters);
    } else {
      request.routing.cluster = static_cast<int>(request.id % profile.num_clusters);
    }
    request.routing.blend_cluster = request.routing.cluster;
    uint64_t seed = 0;
    if (columns.contains("seed") && ParseUint(cells[columns.at("seed")], &seed)) {
      request.routing.seed = seed;
    } else {
      uint64_t sm = request.id * 0x9e3779b97f4a7c15ULL + 1;
      request.routing.seed = SplitMix64(sm);
    }
    request.routing.noise_multiplier =
        0.5 * (profile.min_noise_multiplier + profile.max_noise_multiplier);
    staged.push_back(request);
  }

  TraceIoResult result;
  result.rows = staged.size();
  *requests = std::move(staged);
  return result;
}

TraceIoResult WriteTraceCsvToFile(const std::vector<Request>& requests,
                                  const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return TraceIoResult::Failure("cannot open " + path + " for writing");
  }
  return WriteTraceCsv(requests, out);
}

TraceIoResult ReadTraceCsvFromFile(const std::string& path, const DatasetProfile& profile,
                                   std::vector<Request>* requests) {
  std::ifstream in(path);
  if (!in) {
    return TraceIoResult::Failure("cannot open " + path + " for reading");
  }
  return ReadTraceCsv(in, profile, requests);
}

}  // namespace fmoe
