// Unit tests for the raslog library: enum names (and the job log's exit
// class names, which share the one-table-per-enum scheme), the message
// catalog's internal consistency, and RasLog container + CSV round trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <unistd.h>

#include "joblog/exit_status.hpp"
#include "raslog/event.hpp"
#include "raslog/message_catalog.hpp"
#include "util/error.hpp"
#include "util/time.hpp"

namespace failmine::raslog {
namespace {

const topology::MachineConfig kMira = topology::MachineConfig::mira();

TEST(SeverityNames, RoundTripAndAliases) {
  for (Severity s : kAllSeverities)
    EXPECT_EQ(severity_from_name(severity_name(s)), s);
  EXPECT_EQ(severity_from_name("warning"), Severity::kWarn);
  EXPECT_EQ(severity_from_name("fatal"), Severity::kFatal);
  EXPECT_THROW(severity_from_name("critical"), failmine::ParseError);
}

TEST(ComponentNames, RoundTrip) {
  for (Component c : kAllComponents)
    EXPECT_EQ(component_from_name(component_name(c)), c);
  EXPECT_THROW(component_from_name("NOPE"), failmine::ParseError);
}

TEST(CategoryNames, RoundTrip) {
  for (Category c : kAllCategories)
    EXPECT_EQ(category_from_name(category_name(c)), c);
  EXPECT_THROW(category_from_name("nope"), failmine::ParseError);
}

/// The ParseError text `parse(name)` throws, or "" if it accepts `name`.
template <class ParseFn>
std::string rejection(ParseFn parse, std::string_view name) {
  try {
    parse(name);
  } catch (const failmine::ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(NameTables, EveryValueHasItsCanonicalSpelling) {
  const std::vector<std::string> severities = {"INFO", "WARN", "FATAL"};
  const std::vector<std::string> components = {
      "CNK", "MMCS", "MC",       "BQC",   "DDR",  "ND",      "MUDM",
      "PCI", "CARD", "FIRMWARE", "LINUX", "GPFS", "COOLANT", "BULKPOWER"};
  const std::vector<std::string> categories = {
      "MEMORY",   "PROCESSOR", "NETWORK", "IO",
      "SOFTWARE", "POWER",     "COOLING", "CONTROL"};
  ASSERT_EQ(std::size(kAllSeverities), severities.size());
  ASSERT_EQ(std::size(kAllComponents), components.size());
  ASSERT_EQ(std::size(kAllCategories), categories.size());
  for (std::size_t i = 0; i < severities.size(); ++i) {
    EXPECT_EQ(severity_name(kAllSeverities[i]), severities[i]);
    EXPECT_EQ(severity_from_name(severities[i]), kAllSeverities[i]);
  }
  for (std::size_t i = 0; i < components.size(); ++i) {
    EXPECT_EQ(component_name(kAllComponents[i]), components[i]);
    EXPECT_EQ(component_from_name(components[i]), kAllComponents[i]);
  }
  for (std::size_t i = 0; i < categories.size(); ++i) {
    EXPECT_EQ(category_name(kAllCategories[i]), categories[i]);
    EXPECT_EQ(category_from_name(categories[i]), kAllCategories[i]);
  }
}

TEST(NameTables, SeverityIsCaseInsensitiveAndAcceptsWarning) {
  for (const char* name : {"info", "Info", "iNfO", "INFO"})
    EXPECT_EQ(severity_from_name(name), Severity::kInfo) << name;
  for (const char* name : {"warn", "Warn", "WARN", "warning", "Warning",
                           "WARNING", "wArNiNg"})
    EXPECT_EQ(severity_from_name(name), Severity::kWarn) << name;
  for (const char* name : {"fatal", "Fatal", "FATAL", "fAtAl"})
    EXPECT_EQ(severity_from_name(name), Severity::kFatal) << name;
  for (const char* name : {"", "INF", "INFOS", " INFO", "INFO ", "WARNINGS",
                           "WARNIN", "FATA", "FATALE", "critical", "I NFO"})
    EXPECT_EQ(rejection(severity_from_name, name),
              std::string("parse error: unknown severity: '") + name + "'");
}

TEST(NameTables, ComponentAndCategoryAreExactCase) {
  for (Component c : kAllComponents) {
    const std::string name = component_name(c);
    std::string lower = name;
    for (char& ch : lower) ch = static_cast<char>(ch - 'A' + 'a');
    for (const std::string& miss :
         {lower, name + " ", " " + name, name.substr(1), name + "S"})
      EXPECT_EQ(rejection(component_from_name, miss),
                "parse error: unknown component: '" + miss + "'");
  }
  for (Category c : kAllCategories) {
    const std::string name = category_name(c);
    std::string mixed = name;
    mixed.back() = static_cast<char>(mixed.back() - 'A' + 'a');
    for (const std::string& miss :
         {mixed, name + " ", name.substr(0, name.size() - 1), name + "S"})
      EXPECT_EQ(rejection(category_from_name, miss),
                "parse error: unknown category: '" + miss + "'");
  }
  EXPECT_EQ(rejection(component_from_name, ""),
            "parse error: unknown component: ''");
  EXPECT_EQ(rejection(category_from_name, "BULK_POWER"),
            "parse error: unknown category: 'BULK_POWER'");
}

TEST(MessageCatalog, HasSixtyFourUniqueIds) {
  const auto catalog = message_catalog();
  EXPECT_EQ(catalog.size(), 64u);
  std::set<std::string_view> ids;
  for (const auto& def : catalog) ids.insert(def.id);
  EXPECT_EQ(ids.size(), catalog.size());
}

TEST(MessageCatalog, IdsAreEightHexDigits) {
  for (const auto& def : message_catalog()) {
    EXPECT_EQ(def.id.size(), 8u) << def.id;
    for (char c : def.id)
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'A' && c <= 'F')) << def.id;
  }
}

TEST(MessageCatalog, FatalFlagImpliesFatalSeverity) {
  for (const auto& def : message_catalog()) {
    if (def.job_fatal) EXPECT_EQ(def.severity, Severity::kFatal) << def.id;
    if (def.severity == Severity::kFatal) EXPECT_TRUE(def.job_fatal) << def.id;
  }
}

TEST(MessageCatalog, WeightsArePositiveAndInfoHeavy) {
  double info = 0.0, warn = 0.0, fatal = 0.0;
  for (const auto& def : message_catalog()) {
    EXPECT_GT(def.rate_weight, 0.0) << def.id;
    switch (def.severity) {
      case Severity::kInfo: info += def.rate_weight; break;
      case Severity::kWarn: warn += def.rate_weight; break;
      case Severity::kFatal: fatal += def.rate_weight; break;
    }
  }
  EXPECT_GT(info, 20.0 * warn);
  EXPECT_GT(warn, 5.0 * fatal);
}

TEST(MessageCatalog, LookupById) {
  const MessageDef& def = message_by_id("00010005");
  EXPECT_EQ(def.severity, Severity::kFatal);
  EXPECT_EQ(def.category, Category::kMemory);
  EXPECT_TRUE(is_known_message("00010001"));
  EXPECT_FALSE(is_known_message("FFFFFFFF"));
  EXPECT_THROW(message_by_id("FFFFFFFF"), failmine::ParseError);
}

TEST(MessageCatalog, SeverityCountsAddUp) {
  EXPECT_EQ(count_by_severity(Severity::kInfo) +
                count_by_severity(Severity::kWarn) +
                count_by_severity(Severity::kFatal),
            message_catalog().size());
}

TEST(NameTables, ExitClassIsExactCase) {
  const std::vector<std::string> names = {
      "SUCCESS",        "USER_APP_ERROR",  "USER_CONFIG_ERROR", "USER_KILL",
      "WALLTIME_LIMIT", "SYSTEM_HARDWARE", "SYSTEM_SOFTWARE",   "SYSTEM_IO"};
  ASSERT_EQ(std::size(joblog::kAllExitClasses), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(joblog::exit_class_name(joblog::kAllExitClasses[i]), names[i]);
    EXPECT_EQ(joblog::exit_class_from_name(names[i]),
              joblog::kAllExitClasses[i]);
    std::string lower = names[i];
    for (char& ch : lower)
      if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
    for (const std::string& miss : {lower, names[i] + " ", names[i] + "S",
                                    names[i].substr(1), std::string()}) {
      try {
        joblog::exit_class_from_name(miss);
        ADD_FAILURE() << "accepted '" << miss << "'";
      } catch (const failmine::ParseError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "parse error: unknown exit class: '" + miss + "'");
      }
    }
  }
}

RasEvent make_event(std::uint64_t id, util::UnixSeconds t,
                    const char* msg = "00010005") {
  RasEvent e;
  e.record_id = id;
  e.timestamp = t;
  e.message_id = msg;
  const MessageDef& def = message_by_id(msg);
  e.severity = def.severity;
  e.component = def.component;
  e.category = def.category;
  e.location = topology::Location::parse("R00-M0-N00-J00", kMira);
  e.text = std::string(def.text);
  return e;
}

TEST(RasLog, SortsOnConstruction) {
  std::vector<RasEvent> events = {make_event(2, 200), make_event(1, 100),
                                  make_event(3, 150)};
  const RasLog log(std::move(events));
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.events()[0].record_id, 1u);
  EXPECT_EQ(log.events()[1].record_id, 3u);
  EXPECT_EQ(log.events()[2].record_id, 2u);
}

TEST(RasLog, FinalizeKeepsSortedInputAndSortsReversedInput) {
  std::vector<RasEvent> sorted;
  for (std::uint64_t i = 0; i < 200; ++i)
    sorted.push_back(make_event(i + 1, 1000 + static_cast<int>(i / 3)));
  EXPECT_EQ(RasLog(sorted).events(), sorted);
  std::vector<RasEvent> reversed(sorted.rbegin(), sorted.rend());
  EXPECT_EQ(RasLog(std::move(reversed)).events(), sorted);
}

TEST(RasLog, FinalizeKeepsFileOrderOfEqualKeys) {
  // Rows sharing (timestamp, record_id) differ only in text; whether or
  // not the log needs sorting, they stay in the order they came in.
  std::vector<RasEvent> events;
  for (int copy = 0; copy < 4; ++copy)
    for (std::uint64_t id = 5; id >= 1; --id) {
      RasEvent e = make_event(id, 100 * static_cast<int>(id));
      e.text = "copy " + std::to_string(copy);
      events.push_back(e);
    }
  const RasLog log(events);  // needs a sort: ids descend
  ASSERT_EQ(log.size(), events.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log.events()[i].record_id, i / 4 + 1);
    EXPECT_EQ(log.events()[i].text, "copy " + std::to_string(i % 4));
  }
  // Already sorted, duplicates included: nothing moves.
  EXPECT_EQ(RasLog(log.events()).events(), log.events());
}

TEST(RasLog, FilterBySeverityAndTime) {
  std::vector<RasEvent> events = {make_event(1, 100, "00010001"),   // INFO
                                  make_event(2, 200, "00010005"),   // FATAL
                                  make_event(3, 300, "00010003")};  // WARN
  const RasLog log(std::move(events));
  EXPECT_EQ(log.filter_severity(Severity::kFatal).size(), 1u);
  EXPECT_EQ(log.filter_time(100, 300).size(), 2u);
  const auto counts = log.severity_counts();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
}

class RasLogFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("failmine_ras_" + std::to_string(::getpid()) + ".csv"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(RasLogFile, CsvRoundTripPreservesEverything) {
  std::vector<RasEvent> events = {make_event(1, 1365465600),
                                  make_event(2, 1365465700, "00040004")};
  events[0].job_id = 1234567;
  events[1].text = "text with, comma and \"quotes\"";
  const RasLog log(std::move(events));
  log.write_csv(path_);
  const RasLog loaded = RasLog::read_csv(path_, kMira);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.events()[0], log.events()[0]);
  EXPECT_EQ(loaded.events()[1], log.events()[1]);
}

TEST_F(RasLogFile, ReadRejectsWrongHeader) {
  {
    std::ofstream out(path_);
    out << "not,a,ras,log\n";
  }
  EXPECT_THROW(RasLog::read_csv(path_, kMira), failmine::ParseError);
}

TEST_F(RasLogFile, ReadRejectsBadLocation) {
  RasLog log({make_event(1, 100)});
  log.write_csv(path_);
  // Corrupt the location column.
  std::string content;
  {
    std::ifstream in(path_);
    std::getline(in, content);
    std::string header = content;
    std::getline(in, content);
    content = header + "\n" +
              "1,1970-01-01 00:01:40,00010005,FATAL,DDR,MEMORY,R99-M0,,x\n";
  }
  {
    std::ofstream out(path_);
    out << content;
  }
  EXPECT_THROW(RasLog::read_csv(path_, kMira), failmine::Error);
}

TEST_F(RasLogFile, DuplicateKeysLoadInFileOrderAtEveryThreadCount) {
  std::vector<RasEvent> events;
  for (int copy = 0; copy < 300; ++copy) {
    RasEvent e = make_event(static_cast<std::uint64_t>(7 - copy % 7),
                            1365465600 + 60 * (7 - copy % 7));
    e.text = "copy " + std::to_string(copy);
    events.push_back(e);
  }
  {
    // write_csv would sort first; write the rows in this order instead.
    std::ofstream out(path_);
    out << "record_id,timestamp,message_id,severity,component,category,"
           "location,job_id,text\n";
    for (const RasEvent& e : events)
      out << e.record_id << ',' << util::format_timestamp(e.timestamp) << ','
          << e.message_id << ',' << severity_name(e.severity) << ','
          << component_name(e.component) << ','
          << category_name(e.category) << ',' << e.location.to_string()
          << ",," << e.text << '\n';
  }
  std::vector<RasEvent> expected = events;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const RasEvent& a, const RasEvent& b) {
                     return a.record_id < b.record_id;
                   });
  for (unsigned threads : {1u, 2u, 4u}) {
    ingest::LoadOptions options;
    options.threads = threads;
    options.min_chunk_bytes = 256;
    EXPECT_EQ(RasLog::read_csv(path_, kMira, options).events(), expected)
        << "threads=" << threads;
  }
}

TEST(RasLog, EmptyLogBehaves) {
  const RasLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.severity_counts()[2], 0u);
}

}  // namespace
}  // namespace failmine::raslog
