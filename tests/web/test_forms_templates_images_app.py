"""Tests for forms, templates, dynamic images, and the WebApp framework."""

import pytest

from repro.transport import HttpRequest, HttpResponse, serve_once
from repro.web import (
    Field,
    Form,
    Raster,
    SessionManager,
    Template,
    TemplateError,
    WebApp,
    bar_chart_svg,
    compose_handlers,
    format_cookie,
    iso_date,
    length,
    line_chart_svg,
    numeric_range,
    parse_cookies,
    pattern,
    render,
    required,
    ssn,
    verifier_image,
)
from repro.xmlkit import parse


class TestValidators:
    def test_required(self):
        assert required()("") is not None
        assert required()("  ") is not None
        assert required()("x") is None

    def test_pattern(self):
        check = pattern(r"\d+", "digits only")
        assert check("123") is None
        assert check("12a") == "digits only"
        assert check("") is None  # empty deferred to required()

    def test_length(self):
        check = length(2, 4)
        assert check("a") is not None
        assert check("ab") is None
        assert check("abcde") is not None

    def test_numeric_range(self):
        check = numeric_range(0, 10)
        assert check("5") is None
        assert check("11") is not None
        assert check("x") is not None

    def test_ssn(self):
        assert ssn()("123-45-6789") is None
        assert ssn()("123456789") is not None

    def test_iso_date(self):
        assert iso_date()("1990-07-04") is None
        assert iso_date()("1990-13-04") is not None
        assert iso_date()("90-07-04") is not None


class TestForm:
    @pytest.fixture
    def form(self):
        return Form(
            "apply",
            [
                Field("name", validators=[required()]),
                Field("ssn", validators=[required(), ssn()]),
                Field("dob", validators=[iso_date()]),
            ],
        )

    def test_valid_submission(self, form):
        result = form.validate({"name": "Ada", "ssn": "123-45-6789", "dob": ""})
        assert result.ok
        assert result.values["name"] == "Ada"

    def test_invalid_submission_collects_errors(self, form):
        result = form.validate({"name": "", "ssn": "bogus"})
        assert not result.ok
        assert "name" in result.errors
        assert "ssn" in result.errors
        assert "required" in result.error_summary()

    def test_values_trimmed(self, form):
        result = form.validate({"name": "  Ada  ", "ssn": "123-45-6789"})
        assert result.values["name"] == "Ada"

    def test_render_sticky_and_escaped(self, form):
        html = form.render("/apply", values={"name": '<script>"x"'})
        assert "&lt;script&gt;" in html
        assert "<script>" not in html

    def test_render_shows_errors(self, form):
        result = form.validate({"name": ""})
        html = form.render("/apply", result.values, result.errors)
        assert 'class="error"' in html

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ValueError):
            Form("f", [Field("a"), Field("a")])

    def test_empty_form_rejected(self):
        with pytest.raises(ValueError):
            Form("f", [])

    def test_label_defaulting(self):
        assert Field("first_name").label == "First Name"


class TestTemplates:
    def test_interpolation_escapes(self):
        assert render("<p>{{ v }}</p>", v="<b>") == "<p>&lt;b&gt;</p>"

    def test_raw_filter(self):
        assert render("{{ v | raw }}", v="<b>") == "<b>"

    def test_dotted_lookup(self):
        assert render("{{ user.name }}", user={"name": "Ada"}) == "Ada"

    def test_attribute_lookup(self):
        class User:
            name = "Grace"

        assert render("{{ user.name }}", user=User()) == "Grace"

    def test_if_else(self):
        t = Template("{% if ok %}yes{% else %}no{% endif %}")
        assert t.render(ok=True) == "yes"
        assert t.render(ok=False) == "no"

    def test_elif(self):
        t = Template("{% if a %}A{% elif b %}B{% else %}C{% endif %}")
        assert t.render(a=True, b=False) == "A"
        assert t.render(a=False, b=True) == "B"
        assert t.render(a=False, b=False) == "C"

    def test_not_operator(self):
        assert render("{% if not x %}empty{% endif %}", x=[]) == "empty"

    def test_undefined_condition_is_false(self):
        assert render("{% if ghost %}x{% else %}y{% endif %}") == "y"

    def test_for_loop_with_index(self):
        out = render(
            "{% for item in items %}{{ loop.index }}:{{ item }} {% endfor %}",
            items=["a", "b"],
        )
        assert out == "1:a 2:b "

    def test_nested_loops(self):
        out = render(
            "{% for row in grid %}{% for cell in row %}{{ cell }}{% endfor %}|{% endfor %}",
            grid=[[1, 2], [3, 4]],
        )
        assert out == "12|34|"

    def test_none_renders_empty(self):
        assert render("[{{ v }}]", v=None) == "[]"

    def test_unknown_name_raises(self):
        with pytest.raises(TemplateError):
            render("{{ ghost }}")

    def test_unknown_filter_rejected(self):
        with pytest.raises(TemplateError):
            Template("{{ v | upper }}")

    @pytest.mark.parametrize(
        "bad",
        [
            "{% if x %}unclosed",
            "{% for x in xs %}unclosed",
            "{% endfor %}",
            "{% frobnicate %}",
            "{% for broken %}x{% endfor %}",
        ],
    )
    def test_malformed_templates_rejected(self, bad):
        with pytest.raises(TemplateError):
            Template(bad)

    def test_non_iterable_for(self):
        with pytest.raises(TemplateError):
            render("{% for x in n %}{{ x }}{% endfor %}", n=5)


class TestRaster:
    def test_pixel_round_trip(self):
        raster = Raster(10, 10)
        raster.set_pixel(3, 4, (10, 20, 30))
        assert raster.get_pixel(3, 4) == (10, 20, 30)

    def test_out_of_bounds_set_ignored_get_raises(self):
        raster = Raster(5, 5)
        raster.set_pixel(100, 100, (0, 0, 0))  # silently clipped
        with pytest.raises(IndexError):
            raster.get_pixel(100, 100)

    def test_ppm_round_trip(self):
        raster = Raster(7, 3, background=(1, 2, 3))
        raster.set_pixel(0, 0, (200, 100, 50))
        restored = Raster.from_ppm(raster.to_ppm())
        assert restored.get_pixel(0, 0) == (200, 100, 50)
        assert restored.get_pixel(6, 2) == (1, 2, 3)

    def test_bmp_header(self):
        data = Raster(4, 4).to_bmp()
        assert data[:2] == b"BM"
        assert len(data) == 54 + 16 * 3  # 4*3=12 bytes/row, padded to 12

    def test_line_endpoints(self):
        raster = Raster(10, 10)
        raster.line(0, 0, 9, 9, (255, 0, 0))
        assert raster.get_pixel(0, 0) == (255, 0, 0)
        assert raster.get_pixel(9, 9) == (255, 0, 0)
        assert raster.get_pixel(5, 5) == (255, 0, 0)

    def test_fill_rect_clipped(self):
        raster = Raster(4, 4)
        raster.fill_rect(2, 2, 10, 10, (9, 9, 9))
        assert raster.get_pixel(3, 3) == (9, 9, 9)
        assert raster.get_pixel(1, 1) == (255, 255, 255)

    def test_draw_text_advances_cursor(self):
        raster = Raster(100, 20)
        end = raster.draw_text(0, 0, "AB", (0, 0, 0))
        assert end == 12  # two glyphs * 6px

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Raster(0, 5)

    def test_bad_ppm_rejected(self):
        with pytest.raises(ValueError):
            Raster.from_ppm(b"P3\n1 1\n255\n...")
        with pytest.raises(ValueError):
            Raster.from_ppm(b"P6\n2 2\n255\nxx")  # truncated


class TestVerifierImage:
    def test_deterministic_for_seed(self):
        a = verifier_image("K3Y9", seed=7).to_ppm()
        b = verifier_image("K3Y9", seed=7).to_ppm()
        assert a == b

    def test_different_seeds_differ(self):
        assert verifier_image("K3Y9", seed=1).to_ppm() != verifier_image("K3Y9", seed=2).to_ppm()

    def test_different_codes_differ(self):
        assert verifier_image("AAAA", seed=1).to_ppm() != verifier_image("BBBB", seed=1).to_ppm()

    def test_unsupported_characters_rejected(self):
        with pytest.raises(ValueError):
            verifier_image("O0IL")  # ambiguous glyphs excluded from alphabet

    def test_image_is_not_blank(self):
        raster = verifier_image("XYZ8", seed=3)
        colors = {raster.get_pixel(x, y) for x in range(0, raster.width, 5) for y in range(0, raster.height, 5)}
        assert len(colors) > 3


class TestCharts:
    def test_bar_chart_valid_svg(self):
        svg = parse(bar_chart_svg(["a", "b", "c"], [1, 5, 3], title="T"))
        assert svg.tag == "svg"
        assert len(svg.findall("rect")) == 3

    def test_bar_chart_validation(self):
        with pytest.raises(ValueError):
            bar_chart_svg(["a"], [1, 2])
        with pytest.raises(ValueError):
            bar_chart_svg([], [])

    def test_line_chart_valid_svg(self):
        svg = parse(line_chart_svg({"s1": [1, 2, 3], "s2": [3, 2, 1]}))
        assert len(svg.findall("polyline")) == 2

    def test_line_chart_validation(self):
        with pytest.raises(ValueError):
            line_chart_svg({})
        with pytest.raises(ValueError):
            line_chart_svg({"a": [1, 2], "b": [1]})
        with pytest.raises(ValueError):
            line_chart_svg({"a": [1]})


class TestCookies:
    def test_parse(self):
        cookies = parse_cookies("SESSIONID=abc; theme=dark")
        assert cookies == {"SESSIONID": "abc", "theme": "dark"}

    def test_parse_none_and_empty(self):
        assert parse_cookies(None) == {}
        assert parse_cookies("") == {}

    def test_format(self):
        header = format_cookie("sid", "xyz", max_age=60)
        assert "sid=xyz" in header and "Max-Age=60" in header and "HttpOnly" in header


class TestWebApp:
    @pytest.fixture
    def app(self):
        app = WebApp()

        @app.page("/counter")
        def counter(ctx):
            count = ctx.session.get("count", 0) + 1
            ctx.session.set("count", count)
            return HttpResponse.text_response(str(count))

        @app.page("/item/{item_id}")
        def item(ctx, item_id):
            return HttpResponse.text_response(f"item {item_id}")

        @app.page("/boom")
        def boom(ctx):
            raise RuntimeError("page exploded")

        return app

    def test_session_cookie_issued_once(self, app):
        first = serve_once(app, HttpRequest("GET", "/counter"))
        cookie = first.headers.get("Set-Cookie")
        assert cookie and "SESSIONID=" in cookie
        session_id = cookie.split(";")[0].split("=", 1)[1]
        second = serve_once(
            app, HttpRequest("GET", "/counter", {"Cookie": f"SESSIONID={session_id}"})
        )
        assert second.headers.get("Set-Cookie") is None
        assert second.text() == "2"

    def test_session_created_only_when_touched(self, app):
        response = serve_once(app, HttpRequest("GET", "/item/7"))
        assert response.headers.get("Set-Cookie") is None
        assert app.sessions.active_count() == 0
        serve_once(app, HttpRequest("GET", "/counter"))
        assert app.sessions.active_count() == 1

    def test_untouched_session_keeps_its_cookie(self, app):
        first = serve_once(app, HttpRequest("GET", "/counter"))
        cookie = first.headers.get("Set-Cookie").split(";")[0]
        item = serve_once(app, HttpRequest("GET", "/item/7", {"Cookie": cookie}))
        assert item.headers.get("Set-Cookie") is None
        again = serve_once(app, HttpRequest("GET", "/counter", {"Cookie": cookie}))
        assert again.text() == "2"

    def test_untouched_session_still_slides_its_expiry(self):
        now = [0.0]
        app = WebApp(SessionManager(timeout_seconds=10, clock=lambda: now[0]))

        @app.page("/counter")
        def counter(ctx):
            count = ctx.session.get("count", 0) + 1
            ctx.session.set("count", count)
            return HttpResponse.text_response(str(count))

        @app.page("/item/{item_id}")
        def item(ctx, item_id):
            return HttpResponse.text_response(f"item {item_id}")

        first = serve_once(app, HttpRequest("GET", "/counter"))
        cookie = first.headers.get("Set-Cookie").split(";")[0]
        # pages that never read the session keep it alive well past one timeout
        for _ in range(3):
            now[0] += 8
            serve_once(app, HttpRequest("GET", "/item/7", {"Cookie": cookie}))
        now[0] += 8
        again = serve_once(app, HttpRequest("GET", "/counter", {"Cookie": cookie}))
        assert again.headers.get("Set-Cookie") is None
        assert again.text() == "2"

    def test_sessions_isolated(self, app):
        a = serve_once(app, HttpRequest("GET", "/counter"))
        b = serve_once(app, HttpRequest("GET", "/counter"))
        assert a.text() == b.text() == "1"

    def test_path_variables(self, app):
        assert serve_once(app, HttpRequest("GET", "/item/42")).text() == "item 42"

    def test_404(self, app):
        assert serve_once(app, HttpRequest("GET", "/ghost")).status == 404

    def test_default_error_page(self, app):
        response = serve_once(app, HttpRequest("GET", "/boom"))
        assert response.status == 500
        assert "exploded" in response.text()

    def test_custom_error_handler(self, app):
        app.set_error_handler(
            lambda request, exc: HttpResponse.text_response("custom", 503)
        )
        response = serve_once(app, HttpRequest("GET", "/boom"))
        assert response.status == 503 and response.text() == "custom"

    def test_request_count(self, app):
        serve_once(app, HttpRequest("GET", "/counter"))
        serve_once(app, HttpRequest("GET", "/ghost"))
        assert app.request_count == 2

    def test_extra_cookies(self):
        app = WebApp()

        @app.page("/set")
        def set_cookie(ctx):
            ctx.set_cookie("theme", "dark", max_age=10)
            return HttpResponse.text_response("ok")

        response = serve_once(app, HttpRequest("GET", "/set"))
        cookies = response.headers.get_all("Set-Cookie")
        assert any("theme=dark" in c for c in cookies)


class TestComposeHandlers:
    def test_prefix_dispatch(self):
        handler = compose_handlers(
            {
                "/soap": lambda request: HttpResponse.text_response("soap"),
                "/rest": lambda request: HttpResponse.text_response("rest"),
                "/": lambda request: HttpResponse.text_response("web"),
            }
        )
        assert handler(HttpRequest("GET", "/soap/Bank")).text() == "soap"
        assert handler(HttpRequest("GET", "/rest/Bank/op")).text() == "rest"
        assert handler(HttpRequest("GET", "/index")).text() == "web"

    def test_longest_prefix_wins(self):
        handler = compose_handlers(
            {
                "/api": lambda request: HttpResponse.text_response("api"),
                "/api/v2": lambda request: HttpResponse.text_response("v2"),
            }
        )
        assert handler(HttpRequest("GET", "/api/v2/x")).text() == "v2"
        assert handler(HttpRequest("GET", "/api/x")).text() == "api"

    def test_no_match_404(self):
        handler = compose_handlers(
            {"/only": lambda request: HttpResponse.text_response("x")}
        )
        assert handler(HttpRequest("GET", "/other")).status == 404
