#include "src/util/flags.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace fmoe {
namespace {

// The key a flag name is stored and looked up under: '_' and '-' are one character.
std::string Canonical(std::string name) {
  std::replace(name.begin(), name.end(), '_', '-');
  return name;
}

bool IsBoolSpelling(const std::string& text) {
  return text == "true" || text == "false" || text == "1" || text == "0" || text == "yes" ||
         text == "no";
}

}  // namespace

FlagParser::FlagParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void FlagParser::Register(const std::string& name, Flag flag) {
  FMOE_CHECK_MSG(!flags_.contains(Canonical(name)), "duplicate flag --" << name);
  flags_.emplace(Canonical(name), std::move(flag));
  order_.push_back(name);
}

std::string FlagParser::FormatDouble(double value) {
  std::ostringstream text;
  text << value;
  return text.str();
}

bool FlagParser::ParseValue(const std::string& text, std::string* out) {
  *out = text;
  return true;
}

bool FlagParser::ParseValue(const std::string& text, bool* out) {
  if (!IsBoolSpelling(text)) {
    return false;
  }
  *out = text == "true" || text == "1" || text == "yes";
  return true;
}

bool FlagParser::ParseValue(const std::string& text, double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') {
    return false;
  }
  *out = parsed;
  return true;
}

bool FlagParser::Parse(int argc, const char* const* argv, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return fail("");
    }
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      return fail("unexpected argument: '" + arg + "'");
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    const auto it = flags_.find(Canonical(name));
    if (it == flags_.end()) {
      return fail("unknown flag --" + name);
    }
    const Flag& flag = it->second;
    if (eq == std::string::npos) {
      if (flag.is_bool) {
        // Bare boolean flag; consume a following token only if it is clearly a boolean
        // ("--verbose true" works, "--verbose --other" leaves --other alone).
        value = i + 1 < argc && IsBoolSpelling(argv[i + 1]) ? argv[++i] : "true";
      } else if (i + 1 >= argc) {
        return fail("missing value for --" + name);
      } else {
        value = argv[++i];
      }
    }
    if (!flag.assign(value)) {
      return fail("invalid " + flag.kind + " for --" + name + ": '" + value + "'" +
                  (flag.expected.empty() ? "" : " (expected " + flag.expected + ")"));
    }
  }
  return true;
}

bool FlagParser::ParseCommandLine(int argc, const char* const* argv, int* exit_code) {
  std::string error;
  if (Parse(argc, argv, &error)) {
    return true;
  }
  if (help_requested_) {
    std::cout << Usage();
    *exit_code = 0;
  } else {
    std::cerr << "error: " << error << "\n\n" << Usage();
    *exit_code = 1;
  }
  return false;
}

std::string FlagParser::Usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\nflags:\n";
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(Canonical(name));
    out << "  --" << name << " (default: " << flag.default_text << ")\n      " << flag.help
        << "\n";
  }
  out << "  --help\n      print this message\n";
  return out.str();
}

}  // namespace fmoe
