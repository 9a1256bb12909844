"""Serialization of road networks (JSON documents and CSV file pairs).

The demo toolkit loads its map from USGS data via GTMobiSim; this module
provides the equivalent ingestion path for our reproduction: networks can be
saved and re-loaded exactly (ids, coordinates and explicit lengths survive a
round trip), so experiments can pin a generated map to disk and every
component — anonymizer, de-anonymizer, attacker — can load the identical
graph.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from ..errors import RoadNetworkError
from .graph import RoadNetwork, RoadNetworkBuilder, gc_paused

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "save_network_json",
    "load_network_json",
    "save_network_csv",
    "load_network_csv",
]

_FORMAT_VERSION = 1


def network_to_dict(network: RoadNetwork) -> dict:
    """A JSON-serialisable dictionary capturing the full network."""
    return {
        "format": "repro.roadnet",
        "version": _FORMAT_VERSION,
        "name": network.name,
        "junctions": [
            {
                "id": junction_id,
                "x": network.junction(junction_id).location.x,
                "y": network.junction(junction_id).location.y,
            }
            for junction_id in network.junction_ids()
        ],
        "segments": [
            {
                "id": segment_id,
                "a": network.segment(segment_id).junction_a,
                "b": network.segment(segment_id).junction_b,
                "length": network.segment(segment_id).length,
            }
            for segment_id in network.segment_ids()
        ],
    }


@gc_paused
def network_from_dict(document: dict) -> RoadNetwork:
    """Rebuild a network from :func:`network_to_dict` output."""
    if document.get("format") != "repro.roadnet":
        raise RoadNetworkError("not a repro.roadnet document")
    if document.get("version") != _FORMAT_VERSION:
        raise RoadNetworkError(
            f"unsupported roadnet format version: {document.get('version')}"
        )
    builder = RoadNetworkBuilder(name=document.get("name", "road-network"))
    for junction in document["junctions"]:
        builder.add_junction(int(junction["id"]), float(junction["x"]), float(junction["y"]))
    for segment in document["segments"]:
        builder.add_segment(
            int(segment["id"]),
            int(segment["a"]),
            int(segment["b"]),
            float(segment["length"]),
        )
    return builder.build()


def save_network_json(network: RoadNetwork, path: Union[str, Path]) -> None:
    """Write the network as a single JSON file."""
    Path(path).write_text(json.dumps(network_to_dict(network), indent=1))


def load_network_json(path: Union[str, Path]) -> RoadNetwork:
    """Load a network previously written by :func:`save_network_json`."""
    return network_from_dict(json.loads(Path(path).read_text()))


def save_network_csv(network: RoadNetwork, directory: Union[str, Path]) -> None:
    """Write ``junctions.csv`` and ``segments.csv`` into ``directory``.

    The CSV form mirrors the USGS/GTMobiSim style of shipping maps as node
    and edge tables.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "junctions.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["junction_id", "x", "y"])
        for junction_id in network.junction_ids():
            location = network.junction(junction_id).location
            writer.writerow([junction_id, repr(location.x), repr(location.y)])
    with open(directory / "segments.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["segment_id", "junction_a", "junction_b", "length"])
        for segment_id in network.segment_ids():
            segment = network.segment(segment_id)
            writer.writerow(
                [segment_id, segment.junction_a, segment.junction_b, repr(segment.length)]
            )
    (directory / "network.meta.json").write_text(
        json.dumps({"name": network.name, "version": _FORMAT_VERSION})
    )


def load_network_csv(directory: Union[str, Path]) -> RoadNetwork:
    """Load a network previously written by :func:`save_network_csv`."""
    directory = Path(directory)
    meta_path = directory / "network.meta.json"
    name = "road-network"
    if meta_path.exists():
        name = json.loads(meta_path.read_text()).get("name", name)
    builder = RoadNetworkBuilder(name=name)
    junction_path = directory / "junctions.csv"
    segment_path = directory / "segments.csv"
    if not junction_path.exists() or not segment_path.exists():
        raise RoadNetworkError(f"no junctions.csv/segments.csv under {directory}")
    with open(junction_path, newline="") as handle:
        for row in csv.DictReader(handle):
            builder.add_junction(int(row["junction_id"]), float(row["x"]), float(row["y"]))
    with open(segment_path, newline="") as handle:
        for row in csv.DictReader(handle):
            builder.add_segment(
                int(row["segment_id"]),
                int(row["junction_a"]),
                int(row["junction_b"]),
                float(row["length"]),
            )
    return builder.build()
