// HRQL shell: an interactive (or piped) query interpreter over a generated
// personnel database — the paper's algebra as a command line.
//
//   $ ./example_hrql_shell                      # interactive
//   $ echo 'select_when(emp, Salary >= 100000)' | ./example_hrql_shell
//
// Commands:
//   <hrql expression>   evaluate (relation- or lifespan-sorted)
//   \schema             print every relation scheme
//   \snapshot REL T     print the classical table of REL at chronon T
//   \optimize EXPR      show the rewritten form of a query
//   \quit

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "util/pretty.h"
#include "util/random.h"
#include "workload/generators.h"

using namespace hrdm;

namespace {

storage::Database MakeDemoDb() {
  Rng rng(7);
  storage::Database db;
  workload::PersonnelConfig emp_config;
  emp_config.num_employees = 25;
  auto emp = *workload::MakePersonnel(&rng, emp_config);
  (void)db.CreateRelation(emp.scheme());
  for (const Tuple& t : emp) (void)db.Insert("emp", t);

  workload::StockMarketConfig stock_config;
  stock_config.num_tickers = 10;
  auto stocks = *workload::MakeStockMarket(&rng, stock_config);
  (void)db.CreateRelation(stocks.scheme());
  for (const Tuple& t : stocks) (void)db.Insert("stocks", t);
  return db;
}

void HandleCommand(const std::string& line, const storage::Database& db) {
  if (line == "\\schema") {
    for (const std::string& name : db.RelationNames()) {
      std::printf("%s\n", (*db.Get(name))->scheme()->ToString().c_str());
    }
    return;
  }
  if (line.rfind("\\snapshot ", 0) == 0) {
    std::istringstream in(line.substr(10));
    std::string rel;
    long long t = 0;
    in >> rel >> t;
    auto r = db.Get(rel);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    std::printf("%s\n", RenderSnapshot(**r, t).c_str());
    return;
  }
  if (line.rfind("\\optimize ", 0) == 0) {
    auto expr = query::ParseExpr(line.substr(10));
    if (!expr.ok()) {
      std::printf("error: %s\n", expr.status().ToString().c_str());
      return;
    }
    query::OptimizerStats stats;
    auto optimized = query::Optimize(*expr, &stats);
    std::printf("%s\n(%d rewrites in %d passes)\n",
                optimized->ToString().c_str(), stats.rules_applied,
                stats.passes);
    return;
  }
  // A query: try the relation sort first, then the lifespan sort.
  auto parsed = query::ParseQuery(line);
  if (!parsed.ok()) {
    std::printf("error: %s\n", parsed.status().ToString().c_str());
    return;
  }
  if (std::holds_alternative<query::ExprPtr>(*parsed)) {
    auto result = query::Eval(std::get<query::ExprPtr>(*parsed),
                              *db.CurrentVersion());
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    std::printf("%s(%zu tuples)\n", RenderHistory(*result).c_str(),
                result->size());
  } else {
    auto result =
        query::EvalLifespan(std::get<query::LsExprPtr>(*parsed),
                            *db.CurrentVersion());
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    std::printf("%s\n", result->ToString().c_str());
  }
}

}  // namespace

int main() {
  storage::Database db = MakeDemoDb();
  std::printf(
      "HRDM shell. Relations: emp, stocks. Try:\n"
      "  select_when(emp, Salary >= 150000)\n"
      "  when(select_when(emp, Dept = \"dept0\"))\n"
      "  timeslice(stocks, {[0,9]})\n"
      "  aggregate(emp, avg Salary by Dept)\n"
      "  \\schema   \\snapshot emp 50   \\optimize <expr>   \\quit\n\n");
  std::string line;
  while (std::printf("hrdm> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "\\quit" || line == "\\q") break;
    HandleCommand(line, db);
  }
  return 0;
}
