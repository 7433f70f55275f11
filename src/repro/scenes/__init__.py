"""Scene library: procedural generators, named scenes, camera, ray gen."""

from .camera import Camera
from .generators import (
    box,
    city,
    cone,
    plane,
    room,
    scattered,
    soup,
    sphere,
    terrain,
    tree,
)
from .obj_io import ObjFormatError, load_obj, save_obj
from .queries import (
    AmrGridGeometry,
    PointCloudGeometry,
    amr_grid_two_level,
    point_cloud_clustered,
    point_cloud_uniform,
    splat_mesh,
)
from .library import (
    ALL_SCENES,
    QUERY_SCENE_BUDGET,
    QUERY_SCENES,
    SCENE_KINDS,
    SCENE_TRIANGLE_BUDGET,
    Scene,
    build_scene,
    frame_camera,
    scene_names,
    scene_registry,
)
from .raygen import (
    RayGenConfig,
    generate_primary_rays,
    generate_rays,
    population_digest,
)

__all__ = [
    "ALL_SCENES",
    "AmrGridGeometry",
    "Camera",
    "ObjFormatError",
    "PointCloudGeometry",
    "QUERY_SCENES",
    "QUERY_SCENE_BUDGET",
    "RayGenConfig",
    "SCENE_KINDS",
    "SCENE_TRIANGLE_BUDGET",
    "Scene",
    "amr_grid_two_level",
    "box",
    "build_scene",
    "city",
    "cone",
    "frame_camera",
    "generate_primary_rays",
    "generate_rays",
    "population_digest",
    "load_obj",
    "plane",
    "point_cloud_clustered",
    "point_cloud_uniform",
    "room",
    "save_obj",
    "scattered",
    "scene_names",
    "scene_registry",
    "soup",
    "sphere",
    "splat_mesh",
    "terrain",
    "tree",
]
