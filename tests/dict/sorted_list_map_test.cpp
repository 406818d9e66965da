// Sorted-list dictionary (Figs. 11-13): sequential semantics, ordering,
// uniqueness, and FindFrom cursor positioning.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/dict/sorted_list_map.hpp"

namespace {

using namespace lfll;

TEST(SortedListMap, InsertFindErase) {
    sorted_list_map<int, std::string> m(64);
    EXPECT_TRUE(m.insert(2, "two"));
    EXPECT_TRUE(m.insert(1, "one"));
    EXPECT_TRUE(m.insert(3, "three"));
    EXPECT_EQ(m.find(1), "one");
    EXPECT_EQ(m.find(2), "two");
    EXPECT_EQ(m.find(3), "three");
    EXPECT_EQ(m.find(4), std::nullopt);
    EXPECT_TRUE(m.erase(2));
    EXPECT_EQ(m.find(2), std::nullopt);
    EXPECT_FALSE(m.erase(2));
}

TEST(SortedListMap, DuplicateInsertRejected) {
    sorted_list_map<int, int> m(16);
    EXPECT_TRUE(m.insert(5, 50));
    EXPECT_FALSE(m.insert(5, 51));
    EXPECT_EQ(m.find(5), 50);  // original value untouched
    EXPECT_EQ(m.size_slow(), 1u);
}

TEST(SortedListMap, KeysKeptSorted) {
    sorted_list_map<int, int> m(64);
    for (int k : {9, 3, 7, 1, 5, 8, 2, 6, 4, 0}) m.insert(k, k);
    std::vector<int> keys;
    m.for_each([&](int k, int) { keys.push_back(k); });
    EXPECT_EQ(keys, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(SortedListMap, EraseFromEmptyFails) {
    sorted_list_map<int, int> m(16);
    EXPECT_FALSE(m.erase(1));
}

TEST(SortedListMap, FindFromPositionsAtInsertionPoint) {
    sorted_list_map<int, int> m(16);
    m.insert(10, 0);
    m.insert(30, 0);
    sorted_list_map<int, int>::cursor c(m.list());
    EXPECT_FALSE(m.find_from(20, c));
    ASSERT_FALSE(c.at_end());
    EXPECT_EQ((*c).first, 30);  // first key greater than 20
    EXPECT_TRUE(m.find_from(30, c));
    EXPECT_FALSE(m.find_from(40, c));
    EXPECT_TRUE(c.at_end());
}

TEST(SortedListMap, CustomComparatorReversesOrder) {
    sorted_list_map<int, int, std::greater<int>> m(16);
    for (int k : {1, 3, 2}) m.insert(k, k);
    std::vector<int> keys;
    m.for_each([&](int k, int) { keys.push_back(k); });
    EXPECT_EQ(keys, (std::vector<int>{3, 2, 1}));
    EXPECT_TRUE(m.contains(2));
    EXPECT_TRUE(m.erase(3));
    EXPECT_FALSE(m.contains(3));
}

TEST(SortedListMap, StringKeys) {
    sorted_list_map<std::string, int> m(16);
    EXPECT_TRUE(m.insert("banana", 2));
    EXPECT_TRUE(m.insert("apple", 1));
    EXPECT_TRUE(m.insert("cherry", 3));
    std::vector<std::string> keys;
    m.for_each([&](const std::string& k, int) { keys.push_back(k); });
    EXPECT_EQ(keys, (std::vector<std::string>{"apple", "banana", "cherry"}));
}

TEST(SortedListMap, ValuesWithNontrivialDestructorsReclaimCleanly) {
    sorted_list_map<int, std::vector<int>> m(16);
    m.insert(1, std::vector<int>(100, 7));
    m.insert(2, std::vector<int>(100, 8));
    EXPECT_TRUE(m.erase(1));
    EXPECT_TRUE(m.erase(2));
    auto r = audit_list(m.list());
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(SortedListMap, ManyKeysRoundTrip) {
    sorted_list_map<int, int> m(1024);
    for (int k = 0; k < 500; ++k) EXPECT_TRUE(m.insert(k, 2 * k));
    EXPECT_EQ(m.size_slow(), 500u);
    for (int k = 0; k < 500; ++k) EXPECT_EQ(m.find(k), 2 * k);
    for (int k = 0; k < 500; k += 2) EXPECT_TRUE(m.erase(k));
    EXPECT_EQ(m.size_slow(), 250u);
    for (int k = 0; k < 500; ++k) EXPECT_EQ(m.contains(k), k % 2 == 1);
    auto r = audit_list(m.list());
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(SortedListMap, ReinsertAfterEraseReusesPoolNodes) {
    sorted_list_map<int, int> m(8);
    for (int round = 0; round < 50; ++round) {
        ASSERT_TRUE(m.insert(1, round));
        ASSERT_TRUE(m.erase(1));
    }
    // 50 insert/erase rounds with a pool of 8: reuse is mandatory.
    EXPECT_LE(m.list().pool().capacity(), 64u);
    auto r = audit_list(m.list());
    EXPECT_TRUE(r.ok) << r.error;
}

// Traversal references are released the moment a walk leaves a node
// (Fig. 16), so erasing every key returns every cell and its aux to the
// pool at once: no flush, drain or audit is needed before the count is
// exact. Only First, Last and the aux between them stay live.
TEST(SortedListMap, EraseAllReturnsEveryNodeWithoutAFlush) {
    sorted_list_map<int, int> m(256);
    for (int k = 0; k < 100; ++k) ASSERT_TRUE(m.insert(k, k));
    for (int k = 0; k < 100; ++k) ASSERT_EQ(m.find(k), k);
    for (int k = 0; k < 100; ++k) ASSERT_TRUE(m.erase(k));
    EXPECT_EQ(m.list().pool().live_count(), 3u);
}

}  // namespace
