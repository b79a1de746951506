// Custom contracts: Quality Contracts accept any non-increasing profit
// function, not just the step/linear shapes of the paper. This example
// defines a quadratic-decay QoS function and a two-tier QoD function, runs
// them against QUTS, and validates the non-increasing property up front.
//
//   $ ./examples/custom_contract

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/quts_scheduler.h"
#include "db/database.h"
#include "qc/profit_function.h"
#include "server/web_database_server.h"

using namespace webdb;

namespace {

// profit(rt) = max * (1 - (rt / cutoff)^2): forgiving for small delays,
// falling fast near the deadline.
class QuadraticDecay final : public ProfitFunction {
 public:
  QuadraticDecay(double max_profit, double cutoff_ms)
      : max_(max_profit), cutoff_(cutoff_ms) {}

  double Profit(double x) const override {
    if (x >= cutoff_) return 0.0;
    const double frac = x / cutoff_;
    return max_ * (1.0 - frac * frac);
  }
  double MaxProfit() const override { return max_; }
  double Cutoff() const override { return cutoff_; }
  std::string DebugString() const override { return "quadratic-decay"; }

 private:
  double max_;
  double cutoff_;
};

// Two-tier freshness: full profit for perfectly fresh data, half profit for
// at most two missed updates, nothing beyond.
class TieredFreshness final : public ProfitFunction {
 public:
  explicit TieredFreshness(double max_profit) : max_(max_profit) {}

  double Profit(double uu) const override {
    if (uu < 1.0) return max_;
    if (uu < 3.0) return max_ / 2.0;
    return 0.0;
  }
  double MaxProfit() const override { return max_; }
  double Cutoff() const override { return 3.0; }
  std::string DebugString() const override { return "tiered-freshness"; }

 private:
  double max_;
};

}  // namespace

int main() {
  auto qos = std::make_shared<QuadraticDecay>(/*max=*/4.0, /*cutoff=*/80.0);
  auto qod = std::make_shared<TieredFreshness>(/*max=*/6.0);

  // Validate the contract's core requirement before using it.
  if (!IsNonIncreasing(*qos, 200.0, 1000) ||
      !IsNonIncreasing(*qod, 10.0, 1000)) {
    std::fprintf(stderr, "custom profit functions must be non-increasing\n");
    return 1;
  }
  const QualityContract contract(qos, qod, QcCombination::kQosIndependent);
  std::printf("contract: %s\n", contract.DebugString().c_str());

  Database db(8);
  QutsScheduler::Options quts_options;
  quts_options.atom_time = Millis(5);
  QutsScheduler scheduler(quts_options);
  WebDatabaseServer server(&db, &scheduler);

  // Saturate item 0 with updates while queries keep asking for it.
  for (int i = 0; i < 40; ++i) {
    server.sim().ScheduleAt(Millis(3) * i, [&server, i] {
      server.SubmitUpdate(0, 100.0 + i, Millis(2));
    });
  }
  std::vector<const Query*> queries;
  for (int i = 0; i < 10; ++i) {
    server.sim().ScheduleAt(Millis(12) * i, [&server, &queries, contract] {
      queries.push_back(server.SubmitQuery(QueryType::kLookup, {0}, contract,
                                           Millis(7)));
    });
  }
  server.Run();

  std::printf("\n%-6s %-10s %-8s %-10s %s\n", "query", "rt (ms)", "uu",
              "profit", "tier");
  for (const Query* query : queries) {
    const char* tier = query->staleness < 1.0   ? "fresh"
                       : query->staleness < 3.0 ? "half-credit"
                                                : "stale";
    std::printf("%-6llu %-10.1f %-8.0f $%-9.2f %s\n",
                static_cast<unsigned long long>(TxnIndex(query->id)),
                ToMillis(query->ResponseTime()), query->staleness,
                query->profit.Total(), tier);
  }
  std::printf("\nearned $%.2f of $%.2f (%.0f%%), final rho %.2f\n",
              server.ledger().total_gained(), server.ledger().total_max(),
              server.ledger().TotalPct() * 100.0, scheduler.rho());
  return 0;
}
