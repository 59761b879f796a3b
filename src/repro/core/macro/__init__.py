"""Macro workload scenarios: the six applications from the paper's abstract."""

from typing import Dict, List, Type

from repro.core.macro.flood_risk import FloodRiskAnalysis
from repro.core.macro.geocoding import Geocoding, ReverseGeocoding
from repro.core.macro.land_information import LandInformationManagement
from repro.core.macro.map_search import MapSearchBrowsing
from repro.core.macro.scenario import Scenario, ScenarioResult, WorkItem
from repro.core.macro.toxic_spill import ToxicSpillAnalysis

ALL_SCENARIOS: List[Type[Scenario]] = [
    MapSearchBrowsing,
    Geocoding,
    ReverseGeocoding,
    FloodRiskAnalysis,
    LandInformationManagement,
    ToxicSpillAnalysis,
]

SCENARIOS_BY_NAME: Dict[str, Type[Scenario]] = {
    cls.name: cls for cls in ALL_SCENARIOS
}

__all__ = [
    "ALL_SCENARIOS",
    "SCENARIOS_BY_NAME",
    "FloodRiskAnalysis",
    "Geocoding",
    "LandInformationManagement",
    "MapSearchBrowsing",
    "ReverseGeocoding",
    "Scenario",
    "ScenarioResult",
    "ToxicSpillAnalysis",
    "WorkItem",
]
