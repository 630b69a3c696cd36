/*
 * Native JSON float-array scanner for repro.core.serialize.loads.
 *
 * One pass over a JSON text that skips string literals and finds
 *   - every flat array whose elements are all JSON float literals (a
 *     number with a fraction or an exponent), whose values it converts
 *     into `values`;
 *   - every *float matrix*, an array whose elements are all such flat
 *     arrays of one length, converted row after row;
 *   - every NaN, Infinity and -Infinity token.
 * It writes the text's *skeleton*, the text with each such array or
 * matrix replaced by the token NaN, and one tag per find, in document
 * order: an array's shape (> 0; see PHOCUS_JSON_SHAPE_BITS) or a
 * PHOCUS_JSON_* constant kind (<= 0).  A ragged array of float arrays is
 * no matrix: its rows get one tag each.  The scan never judges whether
 * the text is valid JSON.  The caller lets Python's json module parse
 * the skeleton and answers its parse_constant calls from the tags, so
 * the grammar accepted here (numbers, whitespace) must be a subset of
 * json's.
 *
 * A literal's significant digits are read eight per step where eight
 * digit bytes remain in the text and the 19-digit budget allows: one
 * unaligned 64-bit load is checked and converted as eight digit bytes at
 * once (SWAR, as in simdjson: Langdale and Lemire, "Parsing Gigabytes of
 * JSON per Second", 2019), and the rest one at a time.  Both give the
 * same mantissa and exponent.  Conversion is Eisel-Lemire (Lemire,
 * "Number Parsing at a Gigabyte per Second", 2021) over a truncated
 * 128-bit table of 10^e that the loader derives from exact integers.
 * Literals it cannot decide exactly (more than 19 significant digits, a
 * halfway-ambiguous product, an exponent outside the table, a subnormal
 * or overflowing result) go to strtod_l in the C locale, which glibc
 * rounds correctly, as CPython does.
 *
 * All memory is the caller's: the scan keeps no state between calls, so
 * threads may scan at once.
 */
#define _GNU_SOURCE
#include <locale.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* cdef-begin */
typedef struct {
    const char *text;          /* the JSON text, UTF-8 */
    int64_t size;
    const uint64_t *powers;    /* (hi, lo) per 10^e, e = min_exp10..max_exp10 */
    int64_t min_exp10, max_exp10;
    void *locale;              /* a C locale_t for strtod_l */
    char *skeleton;            /* room for `size` bytes */
    int64_t *tags;
    int64_t max_tags;
    double *values;
    int64_t max_values;
    int64_t skeleton_size;     /* out */
    int64_t n_tags;            /* out */
    int64_t n_values;          /* out */
} phocus_json_scan;

int phocus_json_scan_text(phocus_json_scan *s);
void *phocus_json_c_locale(void);
/* cdef-end */

enum { PHOCUS_JSON_NAN = 0, PHOCUS_JSON_INF = -1, PHOCUS_JSON_NEG_INF = -2 };
/* An array's tag is rows << PHOCUS_JSON_SHAPE_BITS | columns: rows 0 for
 * a flat array, 1 or more for a matrix.  Larger arrays are left to json. */
#define PHOCUS_JSON_SHAPE_BITS 32
#define MAX_COLUMNS (((int64_t)1 << PHOCUS_JSON_SHAPE_BITS) - 1)
#define MAX_ROWS (((int64_t)1 << (62 - PHOCUS_JSON_SHAPE_BITS)) - 1)  /* tags < 2^62 */
enum { PHOCUS_JSON_DONE = 0, PHOCUS_JSON_TOO_DEEP = 1, PHOCUS_JSON_FULL = 2 };

/* Instance documents nest about 6 deep; anything much deeper goes to
 * json.loads whole, whose recursion limit then answers as it always has. */
#define PHOCUS_JSON_MAX_DEPTH 64
#define MAX_DIGITS 19  /* every 19-digit decimal fits a uint64 */

void *phocus_json_c_locale(void)
{
    return (void *)newlocale(LC_ALL_MASK, "C", (locale_t)0);
}

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/* The eight bytes at p as a little-endian word: p[0] is the low byte. */
static uint64_t load8(const char *p)
{
    uint64_t word;
    memcpy(&word, p, sizeof word);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    word = __builtin_bswap64(word);
#endif
    return word;
}

/* Whether all eight bytes of `word` are ASCII digits.  No carry or borrow
 * crosses a digit byte, so the lowest non-digit byte sets its own top bit
 * in one of the two terms, whatever the bytes above it hold. */
static int eight_digits(uint64_t word)
{
    return !(((word + 0x4646464646464646) | (word - 0x3030303030303030)) &
             0x8080808080808080);
}

/* The value of eight digit bytes, first byte most significant: pairs,
 * then quads, then the whole, each step one multiply per half. */
static uint64_t eight_digit_value(uint64_t word)
{
    const uint64_t mask = 0x000000FF000000FF;
    const uint64_t mul1 = 100 + ((uint64_t)1000000 << 32);
    const uint64_t mul2 = 1 + ((uint64_t)10000 << 32);
    word -= 0x3030303030303030;
    word = word * 10 + (word >> 8);
    return (((word & mask) * mul1) + (((word >> 16) & mask) * mul2)) >> 32;
}

/* Folds the digit run at i into *man: eight digits per step while eight
 * digit bytes remain in the text and *digits + 8 stays within MAX_DIGITS,
 * then one at a time; a digit past MAX_DIGITS sets *many instead.  The
 * index past the run. */
static int64_t digit_run(const char *t, int64_t n, int64_t i, uint64_t *man, int *digits,
                         int *many)
{
    while (*digits <= MAX_DIGITS - 8 && n - i >= 8) {
        uint64_t word = load8(t + i);
        if (!eight_digits(word))
            break;
        *man = *man * 100000000 + eight_digit_value(word);
        *digits += 8;
        i += 8;
    }
    for (; i < n && is_digit(t[i]); i++) {
        if (*digits < MAX_DIGITS) {
            *man = *man * 10 + (uint64_t)(t[i] - '0');
            (*digits)++;
        } else {
            *many = 1;
        }
    }
    return i;
}

/* json's whitespace, exactly: a wider set would let an invalid array through. */
static int64_t skip_ws(const char *t, int64_t n, int64_t i)
{
    while (i < n && (t[i] == ' ' || t[i] == '\t' || t[i] == '\n' || t[i] == '\r'))
        i++;
    return i;
}

/* The end of the string literal whose body starts at i. */
static int64_t skip_string(const char *t, int64_t n, int64_t i)
{
    while (i < n) {
        if (t[i] == '\\')
            i += 2;
        else if (t[i++] == '"')
            return i;
    }
    return n;
}

/* man * 10^exp10 rounded to the nearest double, or 0 when the fast path
 * cannot be sure (the caller then asks strtod_l).  A port of Go's
 * strconv.eiselLemire64; see Nigel Tao's "The Eisel-Lemire ParseNumberF64
 * Algorithm" for the comments its section names refer to. */
static int eisel_lemire(const phocus_json_scan *s, uint64_t man, int64_t exp10,
                        int neg, double *out)
{
    uint64_t bits;
    if (man == 0) {
        bits = neg ? (uint64_t)1 << 63 : 0;
        memcpy(out, &bits, sizeof bits);
        return 1;
    }
    if (exp10 < s->min_exp10 || exp10 > s->max_exp10)
        return 0;
    const uint64_t *pow = s->powers + 2 * (exp10 - s->min_exp10);
    /* Normalization; (217706 * e) >> 16 is floor(e * log2(10)) here. */
    int clz = __builtin_clzll(man);
    man <<= clz;
    uint64_t exp2 = (uint64_t)(((217706 * exp10) >> 16) + 64 + 1023) - (uint64_t)clz;
    /* Multiplication. */
    unsigned __int128 x = (unsigned __int128)man * pow[0];
    uint64_t x_hi = (uint64_t)(x >> 64), x_lo = (uint64_t)x;
    /* Wider approximation. */
    if ((x_hi & 0x1FF) == 0x1FF && x_lo + man < man) {
        unsigned __int128 y = (unsigned __int128)man * pow[1];
        uint64_t y_hi = (uint64_t)(y >> 64), y_lo = (uint64_t)y;
        uint64_t merged_hi = x_hi, merged_lo = x_lo + y_hi;
        if (merged_lo < x_lo)
            merged_hi++;
        if ((merged_hi & 0x1FF) == 0x1FF && merged_lo + 1 == 0 && y_lo + man < man)
            return 0;
        x_hi = merged_hi;
        x_lo = merged_lo;
    }
    /* Shifting to 54 bits. */
    uint64_t msb = x_hi >> 63;
    uint64_t mantissa = x_hi >> (msb + 9);
    exp2 -= 1 ^ msb;
    /* Half-way ambiguity. */
    if (x_lo == 0 && (x_hi & 0x1FF) == 0 && (mantissa & 3) == 1)
        return 0;
    /* From 54 to 53 bits. */
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >> 53) {
        mantissa >>= 1;
        exp2 += 1;
    }
    /* Subnormal (exp2 <= 0) or infinite (exp2 >= 0x7FF) results. */
    if (exp2 - 1 >= 0x7FF - 1)
        return 0;
    bits = exp2 << 52 | (mantissa & 0x000FFFFFFFFFFFFF);
    if (neg)
        bits |= (uint64_t)1 << 63;
    memcpy(out, &bits, sizeof bits);
    return 1;
}

/* The end of the JSON float literal at i, its value in *out; -1 when the
 * text there is not one (an integer, a malformed number, anything else). */
static int64_t float_literal(const phocus_json_scan *s, int64_t i, double *out)
{
    const char *t = s->text;
    const int64_t n = s->size, start = i;
    uint64_t man = 0;
    int digits = 0, many = 0, neg = 0, is_float = 0;
    int64_t exp10 = 0;
    if (i < n && t[i] == '-') {
        neg = 1;
        i++;
    }
    if (i < n && t[i] == '0') {
        i++;
    } else if (i < n && t[i] >= '1' && t[i] <= '9') {
        i = digit_run(t, n, i, &man, &digits, &many);
    } else {
        return -1;
    }
    if (i < n && t[i] == '.') {
        if (++i >= n || !is_digit(t[i]))
            return -1;
        if (man == 0)  /* leading zeros: no significant digit */
            for (; i < n && t[i] == '0'; i++)
                exp10--;
        const int before = digits;
        i = digit_run(t, n, i, &man, &digits, &many);
        exp10 -= digits - before;  /* one per significant digit read */
        is_float = 1;
    }
    if (i < n && (t[i] == 'e' || t[i] == 'E')) {
        int eneg = 0;
        int64_t e = 0;
        if (++i < n && (t[i] == '+' || t[i] == '-'))
            eneg = t[i++] == '-';
        if (i >= n || !is_digit(t[i]))
            return -1;
        for (; i < n && is_digit(t[i]); i++)
            if (e < 100000000)  /* far past the table; strtod_l decides */
                e = e * 10 + (t[i] - '0');
        exp10 += eneg ? -e : e;
        is_float = 1;
    }
    /* A float array always continues past its last literal, and that
     * byte keeps strtod_l inside the buffer. */
    if (!is_float || i >= n)
        return -1;
    if (!many && eisel_lemire(s, man, exp10, neg, out))
        return i;
    char *end;
    *out = strtod_l(t + start, &end, (locale_t)s->locale);
    return end == t + i ? i : -1;
}

/* Converts the flat float array whose '[' is at a into values[at...]: its
 * value count and *end past its ']', 0 when the text there is not one,
 * -1 when the value buffer is full. */
static int64_t float_row(phocus_json_scan *s, int64_t a, int64_t at, int64_t *end)
{
    const char *t = s->text;
    const int64_t n = s->size;
    int64_t count = 0, i = skip_ws(t, n, a + 1);
    for (;;) {
        double v;
        int64_t j = float_literal(s, i, &v);
        if (j < 0)
            return 0;
        if (at + count >= s->max_values)
            return -1;
        s->values[at + count++] = v;
        i = skip_ws(t, n, j);
        if (i < n && t[i] == ',') {
            i = skip_ws(t, n, i + 1);
        } else if (i < n && t[i] == ']') {
            break;
        } else {
            return 0;
        }
    }
    *end = i + 1;
    return count;
}

/* Converts the float matrix whose '[' is at a, row after row: its tag and
 * *end past its ']', 0 when the text there is not one (a ragged or mixed
 * array among them), -1 when the value buffer is full. */
static int64_t float_matrix(phocus_json_scan *s, int64_t a, int64_t *end)
{
    const char *t = s->text;
    const int64_t n = s->size;
    int64_t rows = 0, columns = 0, i = skip_ws(t, n, a + 1), row_end = 0;
    for (;;) {
        if (i >= n || t[i] != '[')
            return 0;
        int64_t count = float_row(s, i, s->n_values + rows * columns, &row_end);
        if (count <= 0 || (rows > 0 && count != columns))
            return count < 0 ? -1 : 0;
        columns = count;
        rows++;
        i = skip_ws(t, n, row_end);
        if (i < n && t[i] == ',') {
            i = skip_ws(t, n, i + 1);
        } else if (i < n && t[i] == ']') {
            break;
        } else {
            return 0;
        }
    }
    if (rows > MAX_ROWS || columns > MAX_COLUMNS)
        return 0;
    *end = i + 1;
    return rows << PHOCUS_JSON_SHAPE_BITS | columns;
}

/* Records the float array or float matrix whose '[' is at a: 1 and *end
 * past its ']' when it is one, 0 when it is not, -1 when a buffer is
 * full. */
static int float_array(phocus_json_scan *s, int64_t a, int64_t *end)
{
    int64_t tag = float_row(s, a, s->n_values, end);
    if (tag > MAX_COLUMNS)
        return 0;  /* too long for its tag */
    if (tag == 0)
        tag = float_matrix(s, a, end);
    if (tag <= 0)
        return (int)tag;
    if (s->n_tags >= s->max_tags)
        return -1;
    const int64_t rows = tag >> PHOCUS_JSON_SHAPE_BITS;
    s->tags[s->n_tags++] = tag;
    s->n_values += (rows ? rows : 1) * (tag & MAX_COLUMNS);
    return 1;
}

/* Records the constant `token` if it starts at i: 1 and *end past it,
 * 0 when it does not start there, -1 when the tag buffer is full. */
static int constant(phocus_json_scan *s, int64_t i, const char *token, int64_t tag,
                    int64_t *end)
{
    const int64_t len = (int64_t)strlen(token);
    if (s->size - i < len || memcmp(s->text + i, token, (size_t)len) != 0)
        return 0;
    if (s->n_tags >= s->max_tags)
        return -1;
    s->tags[s->n_tags++] = tag;
    *end = i + len;
    return 1;
}

/* Appends text[from, to) and then `len` bytes of `tail` to the skeleton. */
static void emit(phocus_json_scan *s, int64_t from, int64_t to, const char *tail,
                 int64_t len)
{
    memcpy(s->skeleton + s->skeleton_size, s->text + from, (size_t)(to - from));
    s->skeleton_size += to - from;
    memcpy(s->skeleton + s->skeleton_size, tail, (size_t)len);
    s->skeleton_size += len;
}

int phocus_json_scan_text(phocus_json_scan *s)
{
    const char *t = s->text;
    const int64_t n = s->size;
    int64_t i = 0, depth = 0, end = 0, copied = 0;
    s->skeleton_size = s->n_tags = s->n_values = 0;
    while (i < n) {
        int found = 0;
        switch (t[i]) {
        case '"':
            i = skip_string(t, n, i + 1);
            continue;
        case '[':
            found = float_array(s, i, &end);
            if (found > 0) {
                emit(s, copied, i, "NaN", 3);  /* "[...]" is 5+ bytes */
                copied = end;
            }
            if (found)
                break;
            /* an ordinary array */
            /* fall through */
        case '{':
            if (++depth > PHOCUS_JSON_MAX_DEPTH)
                return PHOCUS_JSON_TOO_DEEP;
            break;
        case ']':
        case '}':
            depth -= depth > 0;
            break;
        case 'N':
            found = constant(s, i, "NaN", PHOCUS_JSON_NAN, &end);
            break;
        case 'I':
            found = constant(s, i, "Infinity", PHOCUS_JSON_INF, &end);
            break;
        case '-':
            found = constant(s, i, "-Infinity", PHOCUS_JSON_NEG_INF, &end);
            break;
        }
        if (found < 0)
            return PHOCUS_JSON_FULL;
        i = found ? end : i + 1;
    }
    emit(s, copied, n, "", 0);
    return PHOCUS_JSON_DONE;
}
