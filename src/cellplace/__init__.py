"""Workpiece placement and robot configuration selection for 6R robots.

Given a robot model and process frames defined relative to a workpiece, the
package finds a workpiece placement together with a per-frame configuration
(backward-transform branch) such that every frame is reachable within axis
limits. Reachability is measured by the excursion of a virtual prismatic
forearm axis, which turns the discrete branch choice into a smooth constrained
program solved by an SQP method with a compact quasi-Newton Hessian.
"""

from .errors import (CellplaceError, DegenerateTarget, EvaluatorFailure,
                     GridTooLarge, InfeasibleSubproblem, InvalidScene,
                     ParseError, SingularConfiguration, SynthesisFailed,
                     ValidationError)
from .geometry import (Pose, compose, dh_transform, frame_from_pose,
                       frame_is_valid, frames_from_poses, invert,
                       pose_from_frame, wrap_angle)
from .kinematics import (JointRow, RobotModel, axis_violation, backward6,
                         backward7, backward7_all, backward7_batch,
                         builtin_kr6r900, config_bits, config_from_bits,
                         config_label, config_of, forward6, forward7,
                         wrist_center)
from .nlp import (BuildOptions, PlacementProblem, SolveSettings, build_problem,
                  make_pinned_solver, solve_placement)
from .oracle import (GridSpec, ReachabilityTable, check_placement, grid_search,
                     minimin_enumerate, verify_solution)
from .scene import (PlacementBounds, PointResult, ProcessPoint, Scene,
                    SolutionReport, load_report, load_scene, save_report,
                    save_scene, synthesize_scene)
from .solver import (NlpSpec, SolverOptions, SolverResult, multistart, solve,
                     solve_qp)

__version__ = "0.1.0"
