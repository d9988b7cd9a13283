/**
 * @file
 * Regenerates figure10 of the paper (see core/experiments.hh for the
 * exact definition). Results are simulated on first run and cached
 * in mi_sweep_cache.csv; the table is also written as fig10_exec_time_opts.csv.
 */

#include <iostream>

#include "core/experiments.hh"

int
main()
{
    migc::ExperimentSweep sweep;
    migc::FigureData fig = migc::figure10(sweep);
    migc::printFigure(std::cout, fig, 4);
    migc::writeFigureCsv("fig10_exec_time_opts.csv", fig);
    return 0;
}
