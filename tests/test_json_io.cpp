// Shared JSON I/O utilities: the parser round-trips every document shape the
// result writers emit (byte-stable through parse -> dump), rejects malformed
// input loudly, and the text-file helpers survive a disk round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "mmtag/io.hpp"
#include "mmtag/runtime/json_io.hpp"
#include "mmtag/runtime/result_writer.hpp"

namespace {

using namespace mmtag;
using runtime::json_value;
using runtime::parse_json;

std::string temp_path(const char* name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

TEST(JsonIo, ParsesScalars)
{
    EXPECT_TRUE(parse_json("null")->is_null());
    EXPECT_EQ(parse_json("true")->as_boolean(), true);
    EXPECT_EQ(parse_json("false")->as_boolean(), false);
    EXPECT_EQ(parse_json("42")->as_uint(), 42u);
    EXPECT_DOUBLE_EQ(parse_json("-17")->as_number(), -17.0);
    EXPECT_DOUBLE_EQ(parse_json("2.5e-3")->as_number(), 2.5e-3);
    EXPECT_EQ(parse_json("\"hi\"")->as_string(), "hi");
}

TEST(JsonIo, ParsesEscapesAndUnicode)
{
    const auto doc = parse_json(R"("a\"b\\c\n\té")");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->as_string(), "a\"b\\c\n\t\xc3\xa9");
}

TEST(JsonIo, ParsesNestedDocument)
{
    const auto doc = parse_json(
        R"({"schema":"x/1","list":[1,2.5,{"k":null}],"flag":true})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("schema")->as_string(), "x/1");
    const json_value* list = doc->find("list");
    ASSERT_NE(list, nullptr);
    EXPECT_EQ(list->size(), 3u);
    EXPECT_EQ(list->at(0).as_uint(), 1u);
    EXPECT_DOUBLE_EQ(list->at(1).as_number(), 2.5);
    EXPECT_TRUE(list->at(2).find("k")->is_null());
    EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonIo, DumpParseDumpIsByteStable)
{
    auto doc = json_value::object();
    doc.set("name", json_value::string("scale"));
    doc.set("pi", json_value::number(3.141592653589793));
    doc.set("tiny", json_value::number(2.5e-3));
    doc.set("count", json_value::unsigned_integer(10000));
    doc.set("delta", json_value::integer(-3));
    auto arr = json_value::array();
    arr.push(json_value::boolean(true));
    arr.push(json_value::null());
    doc.set("arr", std::move(arr));

    const std::string first = doc.dump();
    const auto parsed = parse_json(first);
    ASSERT_TRUE(parsed.has_value());
    // Byte-stability through a full round trip is what lets cached
    // documents be compared with string equality.
    EXPECT_EQ(parsed->dump(), first);
}

TEST(JsonIo, RejectsMalformedInput)
{
    EXPECT_FALSE(parse_json("").has_value());
    EXPECT_FALSE(parse_json("{").has_value());
    EXPECT_FALSE(parse_json("[1,]").has_value());
    EXPECT_FALSE(parse_json("{\"a\":1,}").has_value());
    EXPECT_FALSE(parse_json("\"unterminated").has_value());
    EXPECT_FALSE(parse_json("nul").has_value());
    EXPECT_FALSE(parse_json("1 2").has_value()); // trailing garbage
    EXPECT_FALSE(parse_json("{\"a\" 1}").has_value());
}

TEST(JsonIo, RejectsRunawayNesting)
{
    std::string deep;
    for (int i = 0; i < 200; ++i) deep += "[";
    EXPECT_FALSE(parse_json(deep).has_value());
}

TEST(JsonIo, TextFileRoundTrip)
{
    const std::string path = temp_path("mmtag_json_io_roundtrip.json");
    const std::string text = "{\"k\": 1}\n";
    ASSERT_TRUE(io::write_text_file(path, text));
    const auto back = runtime::read_text_file(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, text);
    std::remove(path.c_str());
    EXPECT_FALSE(runtime::read_text_file(path).has_value());
}

TEST(JsonIo, SchemaObjectAndRatioHelpers)
{
    const auto doc = runtime::schema_object("mmtag.test/1");
    EXPECT_EQ(doc.find("schema")->as_string(), "mmtag.test/1");
    EXPECT_TRUE(runtime::ratio_or_null(0.5, 0).is_null());
    EXPECT_DOUBLE_EQ(runtime::ratio_or_null(0.5, 10).as_number(), 0.5);
}

} // namespace
