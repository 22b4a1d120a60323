#include <gtest/gtest.h>

#include <sstream>

#include "data/time_series.hpp"
#include "report/ascii_plot.hpp"
#include "report/table.hpp"

namespace prm::report {
namespace {

TEST(Table, RendersHeadersAndRows) {
  Table t({"Model", "SSE"});
  t.add_row({"Quadratic", "0.0023"});
  t.add_row({"Competing Risks", "0.0026"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Model"), std::string::npos);
  EXPECT_NE(s.find("Quadratic"), std::string::npos);
  EXPECT_NE(s.find("0.0026"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CellCountValidated) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, SeparatorProducesRule) {
  Table t({"x"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string s = t.to_string();
  // Expect at least 4 horizontal rules: top, under header, mid, bottom.
  std::size_t rules = 0;
  std::istringstream ss(s);
  std::string line;
  while (std::getline(ss, line)) {
    if (line.rfind("+-", 0) == 0) ++rules;
  }
  EXPECT_GE(rules, 4u);
}

TEST(Table, ColumnsAlignedToWidestCell) {
  Table t({"h", "value"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-cell", "2"});
  std::istringstream ss(t.to_string());
  std::string line;
  std::vector<std::size_t> lengths;
  while (std::getline(ss, line)) lengths.push_back(line.size());
  for (std::size_t l : lengths) EXPECT_EQ(l, lengths.front());
}

TEST(Table, NumberFormatters) {
  EXPECT_EQ(Table::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fixed(-0.5, 3), "-0.500");
  EXPECT_EQ(Table::scientific(0.000123, 2), "1.23e-04");
  EXPECT_EQ(Table::percent(95.833333, 2), "95.83%");
}

TEST(AsciiPlot, RendersSeriesAndLegend) {
  data::PerformanceSeries s("payroll", {1.0, 0.95, 0.9, 0.95, 1.0, 1.05});
  AsciiPlot plot(60, 12);
  plot.set_title("demo");
  plot.add_series(s, '*', "payroll index");
  const std::string out = plot.to_string();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("payroll index"), std::string::npos);
}

TEST(AsciiPlot, MarkerDrawsVerticalLine) {
  data::PerformanceSeries s("x", {1.0, 0.9, 0.8, 0.9, 1.0});
  AsciiPlot plot(40, 10);
  plot.add_series(s, 'o', "data");
  plot.add_vertical_marker(2.0, "fit boundary");
  const std::string out = plot.to_string();
  EXPECT_NE(out.find(':'), std::string::npos);
  EXPECT_NE(out.find("fit boundary"), std::string::npos);
}

TEST(AsciiPlot, BandValidatedAndRendered) {
  AsciiPlot plot(40, 10);
  PlotBand band;
  band.times = {0.0, 1.0, 2.0};
  band.lower = {0.8, 0.8, 0.8};
  band.upper = {1.2, 1.2, 1.2};
  band.label = "95% CI";
  plot.add_band(band);
  data::PerformanceSeries s("x", {1.0, 1.0, 1.0});
  plot.add_series(s, '*', "flat");
  EXPECT_NE(plot.to_string().find("95% CI"), std::string::npos);

  PlotBand bad;
  bad.times = {0.0};
  bad.lower = {};
  bad.upper = {1.0};
  EXPECT_THROW(plot.add_band(bad), std::invalid_argument);
}

TEST(AsciiPlot, RejectsTinyCanvas) {
  EXPECT_THROW(AsciiPlot(10, 3), std::invalid_argument);
}

TEST(AsciiPlot, EmptyPlotDoesNotCrash) {
  AsciiPlot plot(40, 10);
  EXPECT_NE(plot.to_string().find("empty"), std::string::npos);
}

}  // namespace
}  // namespace prm::report
