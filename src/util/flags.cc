#include "src/util/flags.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "src/util/logging.h"

namespace fmoe {
namespace {

const char* TypeName(int type) {
  switch (type) {
    case 0:
      return "string";
    case 1:
      return "int";
    case 2:
      return "double";
    case 3:
      return "bool";
  }
  return "?";
}

// The key a flag name is stored and looked up under: '_' and '-' are one character.
std::string Canonical(std::string name) {
  std::replace(name.begin(), name.end(), '_', '-');
  return name;
}

}  // namespace

FlagParser::FlagParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void FlagParser::Register(const std::string& name, Flag flag) {
  FMOE_CHECK_MSG(!flags_.contains(Canonical(name)), "duplicate flag --" << name);
  flags_.emplace(Canonical(name), std::move(flag));
  order_.push_back(name);
}

void FlagParser::AddString(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  Flag flag;
  flag.type = Type::kString;
  flag.help = help;
  flag.string_value = default_value;
  flag.default_text = default_value.empty() ? "\"\"" : default_value;
  Register(name, std::move(flag));
}

void FlagParser::AddInt(const std::string& name, int64_t default_value,
                        const std::string& help) {
  Flag flag;
  flag.type = Type::kInt;
  flag.help = help;
  flag.int_value = default_value;
  flag.default_text = std::to_string(default_value);
  Register(name, std::move(flag));
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help) {
  Flag flag;
  flag.type = Type::kDouble;
  flag.help = help;
  flag.double_value = default_value;
  std::ostringstream text;
  text << default_value;
  flag.default_text = text.str();
  Register(name, std::move(flag));
}

void FlagParser::AddBool(const std::string& name, bool default_value, const std::string& help) {
  Flag flag;
  flag.type = Type::kBool;
  flag.help = help;
  flag.bool_value = default_value;
  flag.default_text = default_value ? "true" : "false";
  Register(name, std::move(flag));
}

bool FlagParser::AssignValue(Flag* flag, const std::string& name, const std::string& value,
                             std::string* error) {
  char* end = nullptr;
  switch (flag->type) {
    case Type::kString:
      flag->string_value = value;
      break;
    case Type::kInt: {
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        if (error != nullptr) {
          *error = "invalid integer for --" + name + ": '" + value + "'";
        }
        return false;
      }
      flag->int_value = parsed;
      break;
    }
    case Type::kDouble: {
      const double parsed = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') {
        if (error != nullptr) {
          *error = "invalid number for --" + name + ": '" + value + "'";
        }
        return false;
      }
      flag->double_value = parsed;
      break;
    }
    case Type::kBool:
      if (value == "true" || value == "1" || value == "yes") {
        flag->bool_value = true;
      } else if (value == "false" || value == "0" || value == "no") {
        flag->bool_value = false;
      } else {
        if (error != nullptr) {
          *error = "invalid boolean for --" + name + ": '" + value + "'";
        }
        return false;
      }
      break;
  }
  flag->set = true;
  return true;
}

bool FlagParser::Parse(int argc, const char* const* argv, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      if (error != nullptr) {
        error->clear();
      }
      return false;
    }
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      if (error != nullptr) {
        *error = "unexpected argument: '" + arg + "'";
      }
      return false;
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    const auto it = flags_.find(Canonical(name));
    if (it == flags_.end()) {
      if (error != nullptr) {
        *error = "unknown flag --" + name;
      }
      return false;
    }
    Flag& flag = it->second;
    if (!has_value) {
      if (flag.type == Type::kBool) {
        // Bare boolean flag; consume a following token only if it is clearly a boolean
        // ("--verbose true" works, "--verbose --other" leaves --other alone).
        if (i + 1 < argc) {
          const std::string peek = argv[i + 1];
          if (peek == "true" || peek == "false" || peek == "1" || peek == "0" ||
              peek == "yes" || peek == "no") {
            ++i;
            if (!AssignValue(&flag, name, peek, error)) {
              return false;
            }
            continue;
          }
        }
        flag.bool_value = true;
        flag.set = true;
        continue;
      }
      if (i + 1 >= argc) {
        if (error != nullptr) {
          *error = "missing value for --" + name;
        }
        return false;
      }
      value = argv[++i];
    }
    if (!AssignValue(&flag, name, value, error)) {
      return false;
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

const FlagParser::Flag& FlagParser::Require(const std::string& name, Type type) const {
  const auto it = flags_.find(Canonical(name));
  FMOE_CHECK_MSG(it != flags_.end(), "flag --" << name << " was never registered");
  FMOE_CHECK_MSG(it->second.type == type, "flag --" << name << " is not a "
                                                    << TypeName(static_cast<int>(type)));
  return it->second;
}

const std::string& FlagParser::GetString(const std::string& name) const {
  return Require(name, Type::kString).string_value;
}

int64_t FlagParser::GetInt(const std::string& name) const {
  return Require(name, Type::kInt).int_value;
}

double FlagParser::GetDouble(const std::string& name) const {
  return Require(name, Type::kDouble).double_value;
}

bool FlagParser::GetBool(const std::string& name) const {
  return Require(name, Type::kBool).bool_value;
}

bool FlagParser::WasSet(const std::string& name) const {
  const auto it = flags_.find(Canonical(name));
  FMOE_CHECK_MSG(it != flags_.end(), "flag --" << name << " was never registered");
  return it->second.set;
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
