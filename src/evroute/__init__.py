"""Bi-objective route and charging planner for a single electric vehicle.

Instances are layered DAGs of charging stations between an origin and a
destination. Plans pick a path and per-station charge fractions; the two
objectives are total trip time and total charging cost. `exact` holds the
globally optimal solvers and the budget-sweep front generator, `grid_oracle`
a brute-force reference, `metaheuristics` GA/PSO searchers over a
continuous encoding, and `cli` the command-line workflows.
"""
from .exact import (InfeasibleInstanceError, PathPlan, ResourceCapError,
                    count_paths, enumerate_paths, epsilon_constraint,
                    grid_oracle, min_cost, min_time, weighted_optimum)
from .instance import (Instance, InstanceFormatError, RouteGraph, Station,
                       VehicleParams, generate_graph, generate_instance, load,
                       save, validate)
from .metaheuristics import (DecodeFailure, RunHistory, SearchConfig,
                             SearchResult, decode, diversity,
                             diversity_metrics, encoding_dim, fitness, run_ga,
                             run_pso, write_history_csv)
from .model import (ConstraintReport, InfeasibleRouteError, Objectives,
                    RouteSolution, check_feasible, driven_km,
                    evaluate, penalized_fitness, try_evaluate)
from .pareto import (FrontComparison, FrontCsvError, FrontPoint, ParetoFront,
                     dominates, filter_nondominated, front_compare,
                     point_classes, read_front_csv, write_front_csv)

__version__ = "0.1.0"
