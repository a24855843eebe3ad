-- Golden corpus of exemplar Preference SQL statements, one per line.
-- Every grammar production (equivalently: every AST node type) must
-- appear in at least one statement; tests/test_grammar_corpus.py
-- round-trips each line parse -> print -> parse and compares the ASTs,
-- then asserts the corpus covers every concrete node class.
SELECT * FROM oldtimer
SELECT DISTINCT ident, color AS paint FROM oldtimer WHERE age >= 30
SELECT o.* FROM oldtimer AS o WHERE o.color = 'red' OR o.age < 20
SELECT ident FROM oldtimer WHERE NOT (age > 40) AND color <> 'green'
SELECT ident, age + 1 AS next_age, age * 2, age - 1, age / 2, age % 7 FROM oldtimer
SELECT ident || '-' || color AS tag FROM oldtimer
SELECT ident FROM oldtimer WHERE age BETWEEN 20 AND 45
SELECT ident FROM oldtimer WHERE age NOT BETWEEN 20 AND 45
SELECT ident FROM oldtimer WHERE color IN ('red', 'white')
SELECT ident FROM oldtimer WHERE color NOT IN ('green')
SELECT ident FROM oldtimer WHERE color LIKE 'r%'
SELECT ident FROM oldtimer WHERE color NOT LIKE 'g%'
SELECT ident FROM oldtimer WHERE color IS NULL
SELECT ident FROM oldtimer WHERE color IS NOT NULL
SELECT ident FROM oldtimer WHERE CAST(age AS NUMERIC) = age AND color IS 'red'
SELECT ident FROM oldtimer WHERE color COLLATE NOCASE = 'RED' OR (-age) COLLATE BINARY IS 3 ORDER BY color COLLATE BINARY
SELECT ident FROM oldtimer WHERE age = ? AND color = ?
SELECT ident FROM oldtimer WHERE -age < +10
SELECT ident FROM oldtimer WHERE age IN (SELECT age FROM oldtimer WHERE color = 'red')
SELECT ident FROM oldtimer WHERE age NOT IN (SELECT age FROM oldtimer WHERE color = 'green')
SELECT ident FROM oldtimer WHERE EXISTS (SELECT * FROM oldtimer WHERE age > 50)
SELECT ident FROM oldtimer WHERE NOT EXISTS (SELECT * FROM oldtimer WHERE age > 90)
SELECT ident, (SELECT MAX(age) FROM oldtimer) AS oldest FROM oldtimer
SELECT COUNT(*) FROM oldtimer
SELECT UPPER(color), COALESCE(color, 'unknown') FROM oldtimer
SELECT CASE WHEN age > 40 THEN 'old' WHEN age > 20 THEN 'mid' ELSE 'young' END AS bucket FROM oldtimer
SELECT TRUE, FALSE, NULL, 3.5, 'text' FROM oldtimer
SELECT color, COUNT(*) AS n FROM oldtimer GROUP BY color HAVING COUNT(*) > 1
SELECT ident FROM oldtimer ORDER BY age DESC, ident LIMIT 3 OFFSET 1
SELECT o.ident, t.trip_id FROM oldtimer o JOIN trips t ON o.age = t.duration
SELECT o.ident FROM oldtimer o INNER JOIN trips t ON o.age = t.duration
SELECT o.ident FROM oldtimer o LEFT OUTER JOIN trips t ON o.age = t.duration
SELECT o.ident FROM oldtimer o CROSS JOIN trips t
SELECT sub.ident FROM (SELECT ident, age FROM oldtimer WHERE age < 50) AS sub
WITH young AS MATERIALIZED (SELECT ident, color FROM oldtimer WHERE age < 30), red AS (SELECT ident FROM oldtimer WHERE color IS 'red') SELECT young.ident FROM young, red WHERE young.ident = red.ident
SELECT ident FROM oldtimer PREFERRING age AROUND 40
SELECT trip_id FROM trips PREFERRING price BETWEEN 1000, 1500
SELECT trip_id FROM trips PREFERRING LOWEST(price) AND HIGHEST(duration)
SELECT ident FROM oldtimer PREFERRING SCORE(age * 2)
SELECT ident FROM oldtimer PREFERRING color = 'white' ELSE color = 'yellow'
SELECT ident FROM oldtimer PREFERRING color IN ('white', 'yellow') AND color <> 'green'
SELECT ident FROM oldtimer PREFERRING color NOT IN ('green', 'red')
SELECT name FROM hotels PREFERRING features CONTAINS 'sauna pool'
SELECT ident FROM oldtimer PREFERRING EXPLICIT(color, 'white' > 'yellow', 'yellow' > 'red')
SELECT ident FROM oldtimer PREFERRING PREFERENCE veteran
SELECT ident FROM oldtimer PREFERRING (LOWEST(age) ELSE HIGHEST(age)) CASCADE color = 'red' AND age AROUND 35
SELECT ident FROM oldtimer PREFERRING age AROUND 40 GROUPING color
SELECT ident, LEVEL(color), DISTANCE(age), TOP(age) FROM oldtimer PREFERRING color = 'white' ELSE color = 'yellow' AND age AROUND 40
SELECT ident FROM oldtimer PREFERRING age AROUND 40 GROUPING color BUT ONLY DISTANCE(age) <= 5
SELECT ident FROM oldtimer WHERE age > 10 PREFERRING age AROUND 40 GROUPING color BUT ONLY TOP(age) = 1 ORDER BY ident LIMIT 5
SELECT o.ident, CASE WHEN o.age > ? THEN ? ELSE (SELECT MAX(price) FROM cars WHERE price < ?) END AS band FROM oldtimer AS o JOIN cars AS c ON c.price < ? WHERE o.age IN (?, ?) AND EXISTS (SELECT 1 FROM cars WHERE price > ?) AND CAST(o.age AS TEXT) COLLATE NOCASE <> ? PREFERRING o.age AROUND ? AND EXPLICIT(o.color, ? > ?) AND o.color IN (?, 'red') BUT ONLY DISTANCE(o.age) <= ? ORDER BY o.age + ? LIMIT ? OFFSET ?
SELECT "my t"."my col" AS "order", "group".* FROM "my t" JOIN "select" AS "group" ON "group"."key" = "my t".x PREFERRING LOWEST("my t"."my col") GROUPING "group"."key"
INSERT INTO oldtimer VALUES ('Lisa', 'blue', 22)
INSERT INTO oldtimer (ident, color, age) VALUES ('Abe', 'grey', 70), ('Ned', 'green', 44)
INSERT INTO oldtimer VALUES (?, ?, ?)
INSERT INTO veterans SELECT * FROM oldtimer PREFERRING HIGHEST(age)
INSERT INTO veterans WITH old AS (SELECT * FROM oldtimer WHERE age > 60) SELECT * FROM old
CREATE PREFERENCE veteran ON oldtimer AS age AROUND 40 AND color = 'white' ELSE color = 'yellow'
DROP PREFERENCE veteran
CREATE PREFERENCE VIEW best_oldtimers AS SELECT * FROM oldtimer PREFERRING age AROUND 40 GROUPING color
DROP PREFERENCE VIEW best_oldtimers
CREATE PREFERENCE CONSTRAINT oldtimer_pk ON oldtimer KEY (ident)
CREATE PREFERENCE CONSTRAINT oldtimer_req ON oldtimer NOT NULL (age, color)
CREATE PREFERENCE CONSTRAINT oldtimer_dom ON oldtimer CHECK (color IN ('red', 'white', 'yellow'))
CREATE PREFERENCE CONSTRAINT oldtimer_fd ON oldtimer FD (ident) DETERMINES (color, age)
DROP PREFERENCE CONSTRAINT oldtimer_pk
EXPLAIN PREFERENCE SELECT * FROM oldtimer PREFERRING age AROUND 40
EXPLAIN PREFERENCE INSERT INTO veterans SELECT * FROM oldtimer PREFERRING HIGHEST(age)
INSERT INTO veterans WITH old AS (SELECT * FROM oldtimer WHERE age > 60) SELECT * FROM old
