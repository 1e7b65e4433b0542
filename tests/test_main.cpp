// main() of every gtest binary in this directory: gtest's own, except that
// death tests run in the "threadsafe" style. The default "fast" style forks
// the test process as it stands, and once the shared ThreadPool has started,
// the child holds none of its workers, so a death statement that reached
// parallel_for would wait forever. The threadsafe style re-executes the
// binary and runs only the death test's own test in the child. A
// --gtest_death_test_style on the command line still takes precedence.
#include <gtest/gtest.h>

int main(int argc, char** argv) {
#ifdef GTEST_FLAG_SET
    GTEST_FLAG_SET(death_test_style, "threadsafe");
#else  // gtest before 1.12 has no GTEST_FLAG_SET
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
