"""Stationary Gaussian state of a driven optomechanical cavity and the
quantum/classical Fisher information of coupling-strength estimation."""

from .params import (SystemParams, SteadyState, BistabilityWindow, rossi_params,
                     steady_state, bistability_window)
from .dynamics import (DriftMatrix, DiffusionMatrix, CovarianceMatrix4,
                       drift_matrix, diffusion_matrix, stationary_covariance)
from .output import MeasurementSpec, output_covariance
from .fisher import FisherReport, qfi_gaussian, cfi_bhd, theta_max
from .pipeline import PipelineSettings, cavity_covariance, fisher_report

__version__ = "0.1.0"
