#include "common/status.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace pushsip {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status st = Status::NotFound("missing table");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing table");
  EXPECT_EQ(st.ToString(), "NotFound: missing table");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfMemory("x").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::Internal("a"), Status::Internal("a"));
  EXPECT_FALSE(Status::Internal("a") == Status::Internal("b"));
  EXPECT_FALSE(Status::Internal("a") == Status::IOError("a"));
}

Status Fails() { return Status::IOError("disk"); }
Status Succeeds() { return Status::OK(); }

Status UseMacro(bool fail) {
  PUSHSIP_RETURN_NOT_OK(fail ? Fails() : Succeeds());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(UseMacro(false).ok());
  EXPECT_EQ(UseMacro(true).code(), StatusCode::kIOError);
}

Result<int> MakeInt(bool fail) {
  if (fail) return Status::InvalidArgument("nope");
  return 7;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = MakeInt(false);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  EXPECT_TRUE(good.status().ok());

  Result<int> bad = MakeInt(true);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Doubled(bool fail) {
  PUSHSIP_ASSIGN_OR_RETURN(const int v, MakeInt(fail));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> good = Doubled(false);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 14);
  EXPECT_FALSE(Doubled(true).ok());
}

TEST(ResultTest, ValueOrDieMoves) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(std::move(r).ValueOrDie(), "hello");
}

Result<std::vector<std::string>> Words() {
  return std::vector<std::string>{"one", "two", "three"};
}

// `*f()` on a temporary Result moves the value out, so a range-for over it
// iterates a live vector (the lvalue overload would dangle: the Result dies
// at the end of the range-init expression).
TEST(ResultTest, DereferencedTemporaryOutlivesTheResult) {
  std::string joined;
  for (const std::string& w : *Words()) joined += w;
  EXPECT_EQ(joined, "onetwothree");

  const Result<std::vector<std::string>> held = Words();
  EXPECT_EQ((*held)[1], "two");  // lvalue: still a reference, no copy
  EXPECT_EQ(&*held, &*held);
}

}  // namespace
}  // namespace pushsip
