// mmtag_bench: `mmtag_bench ID [--flags]` runs one reconstructed experiment;
// `mmtag_bench help` lists them (the table is in experiments.cpp).
#include "experiments.hpp"

int main(int argc, char** argv)
{
    return mmtag::bench::run(argc, argv, mmtag::bench::experiments());
}
