"""Autonomous go-kart driving stack.

Submodules:
    localization -- equirectangular projection and GNSS/IMU EKF fusion
    track        -- track model, splines, min-curvature raceline, velocity profile
    control      -- adaptive pure pursuit with PD steering
    perception   -- grass-boundary detection to a polar depth scan
    planning     -- follow-the-gap reactive planner
    drivebus     -- simulated by-wire CAN bus and subsystem ECUs
    sim          -- kinematic vehicle, sensor emulation, closed-loop runner
    fileio       -- headed CSV tables and binary PGM/PPM images
    cli          -- command-line entry point
"""

__version__ = "0.1.0"
