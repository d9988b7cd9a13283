/**
 * @file
 * Regenerates figure9 of the paper (see core/experiments.hh for the
 * exact definition). Results are simulated on first run and cached
 * in mi_sweep_cache.csv; the table is also written as fig09_row_hits_static.csv.
 */

#include <iostream>

#include "core/experiments.hh"

int
main()
{
    migc::ExperimentSweep sweep;
    migc::FigureData fig = migc::figure9(sweep);
    migc::printFigure(std::cout, fig, 4);
    migc::writeFigureCsv("fig09_row_hits_static.csv", fig);
    return 0;
}
