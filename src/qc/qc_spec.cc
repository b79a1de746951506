#include "qc/qc_spec.h"

#include <cstdlib>
#include <memory>
#include <sstream>
#include <vector>

#include "qc/profit_function.h"
#include "util/logging.h"

namespace webdb {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::vector<std::string> SplitWhitespace(const std::string& s) {
  std::vector<std::string> tokens;
  std::istringstream in(s);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

// Parses a float with optional leading '$'. Returns false on garbage.
bool ParseMoney(const std::string& s, double* out) {
  std::string body = s;
  if (!body.empty() && body[0] == '$') body = body.substr(1);
  if (body.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(body.c_str(), &end);
  return end == body.c_str() + body.size() && *out >= 0.0;
}

// Parses a duration with optional "ms" (default) or "s" suffix, to ms.
bool ParseDurationMs(const std::string& s, double* out_ms) {
  std::string body = s;
  double unit = 1.0;
  if (body.size() >= 2 && body.substr(body.size() - 2) == "ms") {
    body = body.substr(0, body.size() - 2);
  } else if (!body.empty() && body.back() == 's') {
    unit = 1000.0;
    body = body.substr(0, body.size() - 1);
  }
  if (body.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(body.c_str(), &end);
  if (end != body.c_str() + body.size() || value <= 0.0) return false;
  *out_ms = value * unit;
  return true;
}

// Parses "<money>@<cutoff>" into its halves.
bool SplitAt(const std::string& s, std::string* lhs, std::string* rhs) {
  const size_t at = s.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= s.size()) return false;
  *lhs = s.substr(0, at);
  *rhs = s.substr(at + 1);
  return true;
}

std::shared_ptr<const ProfitFunction> MakeFunction(const std::string& shape,
                                                   double max_profit,
                                                   double cutoff) {
  if (shape == "step") {
    return std::make_shared<StepProfitFunction>(max_profit, cutoff);
  }
  if (shape == "linear") {
    return std::make_shared<LinearProfitFunction>(max_profit, cutoff);
  }
  // "exp": the given cutoff acts as the decay scale.
  return std::make_shared<ExponentialDecayProfitFunction>(max_profit, cutoff);
}

}  // namespace

bool ParseQcSpec(const std::string& spec, QualityContract* qc,
                 std::string* error) {
  WEBDB_CHECK(qc != nullptr);
  const std::vector<std::string> tokens = SplitWhitespace(spec);
  if (tokens.empty()) return Fail(error, "empty spec");

  const std::string& shape = tokens[0];
  if (shape != "step" && shape != "linear" && shape != "exp") {
    return Fail(error, "unknown shape '" + shape +
                           "' (want step | linear | exp)");
  }

  std::shared_ptr<const ProfitFunction> qos_fn = SharedZeroProfitFunction();
  std::shared_ptr<const ProfitFunction> qod_fn = qos_fn;
  QcCombination combination = QcCombination::kQosIndependent;

  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& field = tokens[i];
    const size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return Fail(error, "field '" + field + "' is not key=value");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "mode") {
      if (value == "independent") {
        combination = QcCombination::kQosIndependent;
      } else if (value == "dependent") {
        combination = QcCombination::kQosDependent;
      } else {
        return Fail(error, "bad mode '" + value + "'");
      }
    } else if (key == "qos" || key == "qod") {
      std::string money_str, cutoff_str;
      if (!SplitAt(value, &money_str, &cutoff_str)) {
        return Fail(error, "field '" + field + "' wants profit@cutoff");
      }
      double money = 0.0;
      if (!ParseMoney(money_str, &money)) {
        return Fail(error, "bad profit '" + money_str + "'");
      }
      double cutoff = 0.0;
      if (key == "qos") {
        if (!ParseDurationMs(cutoff_str, &cutoff)) {
          return Fail(error, "bad response-time cutoff '" + cutoff_str + "'");
        }
        qos_fn = MakeFunction(shape, money, cutoff);
      } else {
        char* end = nullptr;
        cutoff = std::strtod(cutoff_str.c_str(), &end);
        if (end != cutoff_str.c_str() + cutoff_str.size() || cutoff <= 0.0) {
          return Fail(error, "bad staleness cutoff '" + cutoff_str + "'");
        }
        qod_fn = MakeFunction(shape, money, cutoff);
      }
    } else {
      return Fail(error, "unknown field '" + key + "'");
    }
  }

  *qc = QualityContract(std::move(qos_fn), std::move(qod_fn), combination);
  return true;
}

}  // namespace webdb
