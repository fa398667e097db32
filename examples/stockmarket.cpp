// Stock-market example: evolving schemes via attribute lifespans (Figure 6)
// and interpolation (Figure 9).
//
// The paper's story: Daily-Trading-Volume was recorded over [t1,t2], then
// "it became too expensive to collect and so it was dropped from the
// schema. Subsequently, at time t3 ... the schema was expanded to once
// again incorporate this attribute." Price is sampled sparsely and
// linearly interpolated at the model level.
//
//   $ ./example_stockmarket

#include <cstdio>

#include "query/executor.h"
#include "storage/database.h"
#include "util/pretty.h"

using namespace hrdm;

namespace {

#define CHECK_OK(expr)                                        \
  do {                                                        \
    ::hrdm::Status _s = (expr);                               \
    if (!_s.ok()) {                                           \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__,     \
                   __LINE__, _s.ToString().c_str());          \
      return 1;                                               \
    }                                                         \
  } while (false)

int RealMain() {
  storage::Database db;
  const Lifespan days = Span(0, 29);  // one month of trading days

  CHECK_OK(db.CreateRelation(
      "stocks",
      {{"Ticker", DomainType::kString, days, InterpolationKind::kDiscrete},
       {"Price", DomainType::kDouble, days, InterpolationKind::kLinear},
       {"Volume", DomainType::kInt, days, InterpolationKind::kStepwise}},
      {"Ticker"}));
  auto scheme = *db.catalog().Get("stocks");

  {
    Tuple::Builder b(scheme, days);
    b.SetConstant("Ticker", Value::String("HRDM"));
    // Sparse price samples: days 0, 10, 20 — linear interpolation will
    // answer for every day in between (Figure 9's interpolation function).
    b.SetAt("Price", 0, Value::Double(100.0));
    b.SetAt("Price", 10, Value::Double(150.0));
    b.SetAt("Price", 20, Value::Double(120.0));
    b.SetAt("Volume", 0, Value::Int(5000));
    b.SetAt("Volume", 7, Value::Int(9000));
    auto t = std::move(b).Build();
    CHECK_OK(t.status());
    CHECK_OK(db.Insert("stocks", *std::move(t)));
  }

  const Relation& stocks = **db.Get("stocks");
  std::printf("%s\n", RenderHistory(stocks).c_str());

  // Model-level price on un-sampled days (linear interpolation):
  const Tuple& hrdm_t = stocks.tuple(0);
  const size_t price_idx = *scheme->IndexOf("Price");
  for (TimePoint day : {5, 15, 25}) {
    auto v = hrdm_t.ModelValueAt(price_idx, day);
    CHECK_OK(v.status());
    std::printf("interpolated price on day %lld: %s\n",
                static_cast<long long>(day), v->ToString().c_str());
  }

  // --- Figure 6: the Volume attribute is dropped, then re-adopted -----------
  std::printf("\n-- dropping Volume from the scheme at day 10 --\n");
  CHECK_OK(db.CloseAttribute("stocks", "Volume", 10));
  std::printf("scheme now: %s\n",
              (*db.catalog().Get("stocks"))->ToString().c_str());

  std::printf("-- re-adopting Volume from day 20 (cheap outside source) --\n");
  CHECK_OK(db.ReopenAttribute("stocks", "Volume", Span(20, 29)));
  std::printf("scheme now: %s\n\n",
              (*db.catalog().Get("stocks"))->ToString().c_str());

  // New volume data arrives in the second epoch.
  CHECK_OK(db.Assign("stocks", {Value::String("HRDM")}, "Volume",
                     Span(20, 29), Value::Int(12000)));

  const Relation& evolved = **db.Get("stocks");
  std::printf("%s\n", RenderHistory(evolved).c_str());

  // Queries against each epoch. During the gap [10,19] Volume simply does
  // not exist — the select finds nothing there, with no NULL anywhere.
  const auto pin = db.CurrentVersion();
  auto heavy_epoch1 = query::Run(
      "timeslice(select_when(stocks, Volume >= 8000), {[0,9]})", *pin);
  CHECK_OK(heavy_epoch1.status());
  std::printf("heavy-volume days in epoch 1:\n%s\n",
              RenderHistory(*heavy_epoch1).c_str());

  auto gap_query = query::Run(
      "timeslice(select_when(stocks, Volume >= 0), {[10,19]})", *pin);
  CHECK_OK(gap_query.status());
  std::printf("volume-based selection inside the gap: %zu tuples (attribute "
              "did not exist then)\n",
              gap_query->size());

  auto epoch2 = query::Run(
      "timeslice(select_when(stocks, Volume >= 8000), {[20,29]})", *pin);
  CHECK_OK(epoch2.status());
  std::printf("\nheavy-volume days in epoch 2:\n%s\n",
              RenderHistory(*epoch2).c_str());
  return 0;
}

}  // namespace

int main() { return RealMain(); }
