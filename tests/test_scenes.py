"""Unit tests for the scene library, camera, and ray generation."""

import math

import pytest

from repro.bvh import build_wide_bvh
from repro.geometry import RayKind, dot, length
from repro.scenes import (
    ALL_SCENES,
    Camera,
    RayGenConfig,
    SCENE_TRIANGLE_BUDGET,
    build_scene,
    generate_primary_rays,
    generate_rays,
    scene_names,
)


class TestCamera:
    @pytest.fixture
    def camera(self):
        return Camera(position=(0.0, 0.0, 5.0), look_at=(0.0, 0.0, 0.0))

    def test_center_pixel_looks_forward(self, camera):
        ray = camera.ray_through_pixel(8, 8, 16, 16)
        assert ray.direction[2] == pytest.approx(-1.0, abs=0.1)

    def test_rays_unit_length(self, camera):
        ray = camera.ray_through_pixel(0, 0, 16, 16)
        assert length(ray.direction) == pytest.approx(1.0)

    def test_corner_rays_diverge(self, camera):
        top_left = camera.ray_through_pixel(0, 0, 16, 16)
        bottom_right = camera.ray_through_pixel(15, 15, 16, 16)
        assert dot(top_left.direction, bottom_right.direction) < 1.0

    def test_y_flip_top_row_points_up(self, camera):
        top = camera.ray_through_pixel(8, 0, 16, 16)
        bottom = camera.ray_through_pixel(8, 15, 16, 16)
        assert top.direction[1] > bottom.direction[1]

    def test_pixel_out_of_range(self, camera):
        with pytest.raises(ValueError):
            camera.ray_through_pixel(16, 0, 16, 16)

    def test_fov_validation(self):
        with pytest.raises(ValueError):
            Camera(position=(0.0, 0.0, 5.0), look_at=(0.0, 0.0, 0.0),
                   fov_degrees=180.0)

    def test_basis_is_orthonormal(self, camera):
        forward, right, up = camera.basis
        assert abs(dot(forward, right)) < 1e-9
        assert abs(dot(forward, up)) < 1e-9
        assert length(right) == pytest.approx(1.0)


class TestSceneLibrary:
    def test_all_sixteen_scenes_named(self):
        assert len(ALL_SCENES) == 16
        assert set(ALL_SCENES) == set(SCENE_TRIANGLE_BUDGET)

    def test_scene_names_order(self):
        assert scene_names()[0] == "WKND"

    @pytest.mark.parametrize("name", ["WKND", "SHIP", "BUNNY"])
    def test_small_scenes_build(self, name):
        scene = build_scene(name, scale=0.2)
        assert scene.triangle_count > 0
        assert scene.name == name

    def test_budget_roughly_respected(self):
        scene = build_scene("SPNZA", scale=0.5)
        budget = SCENE_TRIANGLE_BUDGET["SPNZA"] * 0.5
        assert scene.triangle_count >= 0.5 * budget

    def test_wknd_is_smallest(self):
        wknd = build_scene("WKND", scale=0.2)
        bunny = build_scene("BUNNY", scale=0.2)
        assert wknd.triangle_count < bunny.triangle_count

    def test_unknown_scene_rejected(self):
        with pytest.raises(KeyError):
            build_scene("CITY17")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            build_scene("WKND", scale=0.0)

    def test_caching_returns_same_object(self):
        from repro.core.pipeline import Scale, get_scene

        scale = Scale("scene-test", scene_scale=0.2, width=8, height=8)
        assert get_scene("WKND", scale) is get_scene("WKND", scale)

    def test_deterministic_across_cache_clear(self):
        import numpy as np
        from repro.core.pipeline import Scale, clear_caches, get_scene

        scale = Scale("scene-test", scene_scale=0.3, width=8, height=8)
        first = get_scene("SHIP", scale)
        clear_caches()
        second = get_scene("SHIP", scale)
        assert second is not first
        assert np.array_equal(first.mesh.vertices, second.mesh.vertices)


class TestRayGen:
    @pytest.fixture(scope="class")
    def scene_and_bvh(self):
        scene = build_scene("WKND", scale=0.5)
        bvh = build_wide_bvh(scene.mesh.triangles(), name="WKND")
        return scene, bvh

    def test_primary_count(self, scene_and_bvh):
        scene, _ = scene_and_bvh
        rays = generate_primary_rays(scene.camera, RayGenConfig(8, 8))
        assert len(rays) == 64
        assert all(r.kind is RayKind.PRIMARY for r in rays)

    def test_secondary_rays_present(self, scene_and_bvh):
        scene, bvh = scene_and_bvh
        rays = generate_rays(scene.camera, bvh, RayGenConfig(8, 8, seed=1))
        kinds = {r.kind for r in rays}
        assert RayKind.SECONDARY in kinds
        assert RayKind.SHADOW in kinds
        assert len(rays) > 64

    def test_no_secondary_without_bvh(self, scene_and_bvh):
        scene, _ = scene_and_bvh
        rays = generate_rays(scene.camera, None, RayGenConfig(8, 8))
        assert len(rays) == 64

    def test_secondary_disabled(self, scene_and_bvh):
        scene, bvh = scene_and_bvh
        rays = generate_rays(
            scene.camera, bvh, RayGenConfig(8, 8, secondary=False)
        )
        assert len(rays) == 64

    def test_deterministic_given_seed(self, scene_and_bvh):
        scene, bvh = scene_and_bvh
        a = generate_rays(scene.camera, bvh, RayGenConfig(8, 8, seed=3))
        b = generate_rays(scene.camera, bvh, RayGenConfig(8, 8, seed=3))
        assert len(a) == len(b)
        assert all(
            ra.origin == rb.origin and ra.direction == rb.direction
            for ra, rb in zip(a, b)
        )

    def test_different_seeds_differ(self, scene_and_bvh):
        scene, bvh = scene_and_bvh
        a = generate_rays(scene.camera, bvh, RayGenConfig(8, 8, seed=3))
        b = generate_rays(scene.camera, bvh, RayGenConfig(8, 8, seed=4))
        secondary_a = [r for r in a if r.kind is RayKind.SECONDARY]
        secondary_b = [r for r in b if r.kind is RayKind.SECONDARY]
        assert any(
            ra.direction != rb.direction
            for ra, rb in zip(secondary_a, secondary_b)
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RayGenConfig(width=0, height=8)

    def test_bounce_directions_in_hemisphere(self, scene_and_bvh):
        """Secondary bounce rays leave the surface (don't tunnel into it)."""
        scene, bvh = scene_and_bvh
        from repro.traversal import traverse_dfs

        rays = generate_rays(scene.camera, bvh, RayGenConfig(8, 8, seed=2))
        secondaries = [r for r in rays if r.kind is RayKind.SECONDARY]
        assert secondaries
        # Each secondary origin should not be immediately self-shadowed.
        for ray in secondaries[:10]:
            trace = traverse_dfs(ray.clone(), bvh)
            if trace.hit is not None:
                assert trace.hit.t > 1e-4
