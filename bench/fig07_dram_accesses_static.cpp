/**
 * @file
 * Regenerates figure7 of the paper (see core/experiments.hh for the
 * exact definition). Results are simulated on first run and cached
 * in mi_sweep_cache.csv; the table is also written as fig07_dram_accesses_static.csv.
 */

#include <iostream>

#include "core/experiments.hh"

int
main()
{
    migc::ExperimentSweep sweep;
    migc::FigureData fig = migc::figure7(sweep);
    migc::printFigure(std::cout, fig, 4);
    migc::writeFigureCsv("fig07_dram_accesses_static.csv", fig);
    return 0;
}
