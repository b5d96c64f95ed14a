// Unit tests for topology/location: parsing, formatting, containment,
// node-index mapping.

#include "topology/location.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace failmine::topology {
namespace {

const MachineConfig kMira = MachineConfig::mira();

TEST(Location, ParseFormatsRoundTrip) {
  for (const char* s : {"R00", "R2F", "R17-M1", "R05-M0-N09",
                        "R13-M1-N15-J31", "R00-M0-N00-J00-C15"}) {
    EXPECT_EQ(Location::parse(s, kMira).to_string(), s);
  }
}

TEST(Location, ParseRejectsMalformedStrings) {
  EXPECT_THROW(Location::parse("", kMira), failmine::ParseError);
  EXPECT_THROW(Location::parse("X00", kMira), failmine::ParseError);
  EXPECT_THROW(Location::parse("R0", kMira), failmine::ParseError);
  EXPECT_THROW(Location::parse("R00-Mx", kMira), failmine::ParseError);
  EXPECT_THROW(Location::parse("R00-M0-N1", kMira), failmine::ParseError);
  EXPECT_THROW(Location::parse("R00-M0-N01-J02-C03-X04", kMira),
               failmine::ParseError);
}

TEST(Location, ParseRejectsOutOfMachineComponents) {
  EXPECT_THROW(Location::parse("R30", kMira), failmine::DomainError);  // row 3
  EXPECT_THROW(Location::parse("R00-M2", kMira), failmine::DomainError);
  EXPECT_THROW(Location::parse("R00-M0-N16", kMira), failmine::DomainError);
  EXPECT_THROW(Location::parse("R00-M0-N00-J32", kMira), failmine::DomainError);
  EXPECT_THROW(Location::parse("R00-M0-N00-J00-C16", kMira),
               failmine::DomainError);
}

TEST(Location, HexRackColumnsParse) {
  const Location loc = Location::parse("R2A", kMira);
  EXPECT_EQ(loc.rack_row(), 2);
  EXPECT_EQ(loc.rack_column(), 10);
  EXPECT_EQ(loc.rack_index(kMira), 2 * 16 + 10);
}

TEST(Location, LevelAccessorsValidateDepth) {
  const Location rack = Location::parse("R00", kMira);
  EXPECT_EQ(rack.level(), Level::kRack);
  EXPECT_THROW(rack.midplane(), failmine::DomainError);
  const Location card = Location::parse("R00-M1-N02-J03", kMira);
  EXPECT_EQ(card.midplane(), 1);
  EXPECT_EQ(card.board(), 2);
  EXPECT_EQ(card.card(), 3);
  EXPECT_THROW(card.core(), failmine::DomainError);
}

TEST(Location, ContainmentFollowsHierarchy) {
  const Location rack = Location::parse("R05", kMira);
  const Location mid = Location::parse("R05-M1", kMira);
  const Location board = Location::parse("R05-M1-N03", kMira);
  const Location card = Location::parse("R05-M1-N03-J07", kMira);
  const Location other = Location::parse("R06-M1-N03-J07", kMira);

  EXPECT_TRUE(rack.contains(card));
  EXPECT_TRUE(mid.contains(board));
  EXPECT_TRUE(board.contains(card));
  EXPECT_TRUE(card.contains(card));
  EXPECT_FALSE(card.contains(board));
  EXPECT_FALSE(rack.contains(other));
  EXPECT_FALSE(mid.contains(Location::parse("R05-M0", kMira)));
}

TEST(Location, AncestorTruncates) {
  const Location core = Location::parse("R11-M0-N14-J22-C09", kMira);
  EXPECT_EQ(core.ancestor(Level::kNodeBoard).to_string(), "R11-M0-N14");
  EXPECT_EQ(core.ancestor(Level::kRack).to_string(), "R11");
  EXPECT_EQ(core.ancestor(Level::kCore), core);
  const Location rack = Location::parse("R11", kMira);
  EXPECT_THROW(rack.ancestor(Level::kMidplane), failmine::DomainError);
}

TEST(Location, CommonLevel) {
  const Location a = Location::parse("R05-M1-N03-J07", kMira);
  const Location b = Location::parse("R05-M1-N03-J08", kMira);
  const Location c = Location::parse("R05-M0-N03-J07", kMira);
  const Location d = Location::parse("R06", kMira);
  EXPECT_EQ(a.common_level(b), Level::kNodeBoard);
  EXPECT_EQ(a.common_level(a), Level::kComputeCard);
  EXPECT_EQ(a.common_level(c), Level::kRack);
  EXPECT_EQ(a.common_level(d), std::nullopt);
}

TEST(Location, CommonLevelWithShallowLocation) {
  const Location card = Location::parse("R05-M1-N03-J07", kMira);
  const Location mid = Location::parse("R05-M1", kMira);
  EXPECT_EQ(card.common_level(mid), Level::kMidplane);
}

TEST(Location, NodeIndexRoundTrips) {
  for (NodeIndex n : {0u, 511u, 512u, 1024u, 49151u, 33333u}) {
    const Location loc = Location::from_node_index(n, kMira);
    EXPECT_EQ(loc.level(), Level::kComputeCard);
    EXPECT_EQ(loc.node_index(kMira), n);
  }
  EXPECT_THROW(Location::from_node_index(49152u, kMira), failmine::DomainError);
}

TEST(Location, NodeIndexRequiresCardDepth) {
  const Location board = Location::parse("R00-M0-N00", kMira);
  EXPECT_THROW(board.node_index(kMira), failmine::DomainError);
}

TEST(Location, NodeIndexLayoutIsHierarchical) {
  // First card of rack 1 comes right after the last card of rack 0.
  const Location last_r0 = Location::parse("R00-M1-N15-J31", kMira);
  const Location first_r1 = Location::parse("R01-M0-N00-J00", kMira);
  EXPECT_EQ(last_r0.node_index(kMira) + 1, first_r1.node_index(kMira));
}

TEST(Location, OrderingIsConsistent) {
  const Location a = Location::parse("R00-M0-N00-J00", kMira);
  const Location b = Location::parse("R00-M0-N00-J01", kMira);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, a);
}

// ------------------------------------------------ parse round trip
//
// Location::parse walks the string once without allocating. The tests
// below hold it to a reference copy of the earlier split-based parser:
// same locations, same exception types, same messages.

/// The earlier parser: util::split on '-', then each component in turn.
Location reference_parse(std::string_view text, const MachineConfig& config) {
  const auto hex = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw failmine::ParseError(std::string("bad hex digit '") + c +
                               "' in location");
  };
  const auto two_digits = [](const std::string& part, char tag) {
    if (part.size() != 3 || part[0] != tag || part[1] < '0' || part[1] > '9' ||
        part[2] < '0' || part[2] > '9')
      throw failmine::ParseError("bad location component '" + part + "'");
    return (part[1] - '0') * 10 + (part[2] - '0');
  };
  const auto parts = util::split(text, '-');
  if (parts.empty() || parts[0].empty())
    throw failmine::ParseError("empty location string");
  const std::string& r = parts[0];
  if (r.size() != 3 || r[0] != 'R' || r[1] < '0' || r[1] > '9')
    throw failmine::ParseError("bad rack component '" + r + "'");
  const int row = r[1] - '0';
  const int col = hex(r[2]);
  if (row >= config.rack_rows || col >= config.rack_columns)
    throw failmine::DomainError("rack " + r + " outside machine");
  Location loc = Location::rack(row, col);
  if (parts.size() >= 2) {
    const std::string& p = parts[1];
    if (p.size() != 2 || p[0] != 'M' || p[1] < '0' || p[1] > '9')
      throw failmine::ParseError("bad midplane component '" + p + "'");
    if (p[1] - '0' >= config.midplanes_per_rack)
      throw failmine::DomainError("midplane out of machine range");
    loc = loc.with_midplane(p[1] - '0');
  }
  if (parts.size() >= 3) {
    const int n = two_digits(parts[2], 'N');
    if (n >= config.boards_per_midplane)
      throw failmine::DomainError("node board out of machine range");
    loc = loc.with_board(n);
  }
  if (parts.size() >= 4) {
    const int j = two_digits(parts[3], 'J');
    if (j >= config.cards_per_board)
      throw failmine::DomainError("compute card out of machine range");
    loc = loc.with_card(j);
  }
  if (parts.size() >= 5) {
    const int c = two_digits(parts[4], 'C');
    if (c >= config.cores_per_node)
      throw failmine::DomainError("core out of machine range");
    loc = loc.with_core(c);
  }
  if (parts.size() > 5)
    throw failmine::ParseError("location has too many components: '" +
                               std::string(text) + "'");
  return loc;
}

/// "ok <location>" or "<exception kind>: <message>" for one parser.
template <class ParseFn>
std::string outcome(ParseFn parse, const std::string& text) {
  try {
    return "ok " + parse(text, kMira).to_string();
  } catch (const failmine::ParseError& e) {
    return std::string("ParseError: ") + e.what();
  } catch (const failmine::DomainError& e) {
    return std::string("DomainError: ") + e.what();
  }
}

void expect_same_outcome(const std::string& text) {
  EXPECT_EQ(outcome(Location::parse, text), outcome(reference_parse, text))
      << "text='" << text << "'";
}

TEST(LocationRoundTrip, EveryMiraCardAndEveryLevelAbove) {
  std::size_t checked = 0;
  char buf[32];
  for (int rack = 0; rack < kMira.racks(); ++rack) {
    const int row = rack / kMira.rack_columns;
    const int col = rack % kMira.rack_columns;
    std::snprintf(buf, sizeof(buf), "R%d%X", row, col);
    const std::string r = buf;
    EXPECT_EQ(Location::parse(r, kMira), Location::rack(row, col));
    EXPECT_EQ(Location::parse(r, kMira).to_string(), r);
    for (int m = 0; m < kMira.midplanes_per_rack; ++m) {
      const std::string mid = r + "-M" + std::to_string(m);
      const Location mloc = Location::parse(mid, kMira);
      EXPECT_EQ(mloc, Location::rack(row, col).with_midplane(m));
      EXPECT_EQ(mloc.to_string(), mid);
      for (int n = 0; n < kMira.boards_per_midplane; ++n) {
        std::snprintf(buf, sizeof(buf), "-N%02d", n);
        const std::string board = mid + buf;
        const Location bloc = Location::parse(board, kMira);
        ASSERT_EQ(bloc, mloc.with_board(n));
        ASSERT_EQ(bloc.to_string(), board);
        for (int j = 0; j < kMira.cards_per_board; ++j) {
          std::snprintf(buf, sizeof(buf), "-J%02d", j);
          const std::string card = board + buf;
          const Location cloc = Location::parse(card, kMira);
          ASSERT_EQ(cloc, bloc.with_card(j)) << card;
          ASSERT_EQ(cloc.to_string(), card);
          ASSERT_EQ(Location::from_node_index(cloc.node_index(kMira), kMira),
                    cloc);
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, kMira.total_nodes());
  for (const char* core : {"R00-M0-N00-J00-C00", "R2F-M1-N15-J31-C15",
                           "R1a-M0-N07-J19-C08"})
    EXPECT_EQ(Location::parse(core, kMira), reference_parse(core, kMira));
}

TEST(LocationRoundTrip, RejectionsMatchTheSplitBasedParser) {
  // Every rejection test_location and test_fuzz_parsers exercise, plus
  // edge cases of the one-pass walk (empty components, trailing dashes).
  for (const char* text :
       {"", "X00", "R0", "R00-Mx", "R00-M0-N1", "R00-M0-N01-J02-C03-X04",
        "R30", "R00-M2", "R00-M0-N16", "R00-M0-N00-J32", "R00-M0-N00-J00-C16",
        "-", "--", "R00-", "R00--M0", "R00-M0-", "R00-M0-N00-", "R0G",
        "R00-M0-N00-J00-C00-", "R00-M0-N00-J00-C00-C00-C00", "r00", "R00 ",
        " R00", "R00-M0-N0a", "R00-M00", "R2f-M1", "RAA", "R00-M0-N00-J00-C"})
    expect_same_outcome(text);

  // The fuzz test's alphabet and seed, then mutations of valid codes.
  util::Rng rng(99);
  static constexpr char kAlphabet[] = "RMNJC0123456789ABCDEF- ";
  for (int i = 0; i < 5000; ++i) {
    std::string s;
    for (auto len = rng.uniform_index(24); len > 0; --len)
      s.push_back(kAlphabet[rng.uniform_index(sizeof(kAlphabet) - 1)]);
    expect_same_outcome(s);
  }
  for (int i = 0; i < 5000; ++i) {
    const auto node = static_cast<NodeIndex>(rng.uniform_index(49152));
    std::string s = Location::from_node_index(node, kMira).to_string() + "-C" +
                    std::to_string(10 + rng.uniform_index(10));
    const auto pos = rng.uniform_index(s.size());
    const char c = kAlphabet[rng.uniform_index(sizeof(kAlphabet) - 1)];
    switch (rng.uniform_index(3)) {
      case 0: s[pos] = c; break;
      case 1: s.erase(pos, 1); break;
      default: s.insert(pos, 1, c);
    }
    expect_same_outcome(s);
  }
}

TEST(LevelName, AllLevelsNamed) {
  EXPECT_EQ(level_name(Level::kRack), "rack");
  EXPECT_EQ(level_name(Level::kCore), "core");
}

}  // namespace
}  // namespace failmine::topology
