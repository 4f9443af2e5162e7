// Package datagen generates the three synthetic datasets used throughout the
// evaluation, shaped after the paper's benchmarks (Section 6.1):
//
//   - IMDB: a multi-table movie database in the style of IMDB-JOB — titles,
//     people, cast facts and per-movie info with foreign keys, Zipf-skewed
//     genres/roles and correlated numeric columns.
//   - MAS: a researcher/publication database in the style of the Microsoft
//     Academic Search dataset — authors, publications, a writes relation and
//     conferences.
//   - Flights: a single wide flight-delay fact table in the style of the
//     IDEBench FLIGHTS dataset.
//
// All generators are deterministic given (scale, seed). scale 1.0 produces
// roughly 100k tuples for IMDB, 40k for MAS, and 50k for Flights — large
// enough that exact query execution is visibly slower than approximation-set
// execution, small enough for laptop-scale experiments. The real datasets
// (34M tuples for IMDB) are substituted per DESIGN.md.
package datagen

import (
	"fmt"
	"math/rand"

	"asqprl/internal/table"
)

// zipfPick draws an index in [0, n) with a Zipf-like skew (rank 1 most
// popular), using a simple inverse-CDF approximation that avoids the state
// of rand.Zipf so draws stay cheap and deterministic.
func zipfPick(rng *rand.Rand, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse transform over p(k) ∝ 1/k^s using the integral approximation.
	u := rng.Float64()
	k := int(float64(n) * (uIntoZipf(u, s)))
	if k >= n {
		k = n - 1
	}
	return k
}

// uIntoZipf maps a uniform u into a skewed fraction in [0,1).
func uIntoZipf(u, s float64) float64 {
	// Square the uniform a couple of times: cheap heavy-head skew whose
	// strength grows with s.
	f := u
	for i := 0.0; i < s; i++ {
		f *= u
	}
	return f
}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 10 {
		n = 10
	}
	return n
}

// firstNames and lastNames feed person-name generation.
var firstNames = []string{
	"Ann", "Bob", "Carla", "Dan", "Eve", "Frank", "Grace", "Hugo", "Ida",
	"Jack", "Kira", "Liam", "Mona", "Nils", "Olga", "Paul", "Quinn", "Rosa",
	"Sam", "Tara", "Uri", "Vera", "Walt", "Xena", "Yuri", "Zoe",
}

var lastNames = []string{
	"Adams", "Brown", "Chen", "Diaz", "Evans", "Fischer", "Garcia", "Haas",
	"Ito", "Jones", "Kumar", "Lee", "Moretti", "Novak", "Okafor", "Park",
	"Quist", "Rossi", "Smith", "Tanaka", "Ueda", "Varga", "Wong", "Xu",
	"Yang", "Ziegler",
}

func personName(rng *rand.Rand) string {
	return firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
}

// movie title word pools.
var titleAdjectives = []string{
	"Dark", "Silent", "Golden", "Lost", "Hidden", "Broken", "Eternal",
	"Crimson", "Frozen", "Burning", "Quiet", "Savage", "Gentle", "Final",
}

var titleNouns = []string{
	"Horizon", "Empire", "Garden", "River", "Shadow", "Citadel", "Voyage",
	"Reckoning", "Harvest", "Covenant", "Symphony", "Labyrinth", "Monsoon",
	"Meridian",
}

func movieTitle(rng *rand.Rand, id int) string {
	return fmt.Sprintf("%s %s %d",
		titleAdjectives[rng.Intn(len(titleAdjectives))],
		titleNouns[rng.Intn(len(titleNouns))], id%97)
}

var genres = []string{
	"drama", "comedy", "action", "thriller", "documentary", "horror",
	"romance", "scifi", "animation", "western",
}

var kinds = []string{"movie", "tv series", "video", "short"}

var roles = []string{"actor", "actress", "director", "producer", "writer", "composer", "editor"}

var infoTypes = []string{"budget", "gross", "runtime", "country", "language"}

// ByName generates the built-in dataset the CLIs call imdb, mas or flights.
func ByName(name string, scale float64, seed int64) (*table.Database, error) {
	switch name {
	case "imdb":
		return IMDB(scale, seed), nil
	case "mas":
		return MAS(scale, seed), nil
	case "flights":
		return Flights(scale, seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want imdb, mas or flights)", name)
	}
}

// IMDB generates the IMDB-JOB-shaped database. At scale 1.0:
// title ≈ 20k, name ≈ 12k, cast_info ≈ 50k, movie_info ≈ 25k.
func IMDB(scale float64, seed int64) *table.Database {
	rng := rand.New(rand.NewSource(seed))
	nTitles := scaled(20000, scale)
	nNames := scaled(12000, scale)
	nCast := scaled(50000, scale)
	nInfo := scaled(25000, scale)

	title := table.New("title", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "title", Kind: table.KindString},
		{Name: "kind", Kind: table.KindString},
		{Name: "production_year", Kind: table.KindInt},
		{Name: "genre", Kind: table.KindString},
		{Name: "rating", Kind: table.KindFloat},
		{Name: "votes", Kind: table.KindInt},
	})
	for i := 0; i < nTitles; i++ {
		year := 1930 + zipfPick(rng, 95, 1) // skewed toward recent via reversal below
		year = 1930 + (95 - 1 - (year - 1930))
		genre := genres[zipfPick(rng, len(genres), 1)]
		rating := 4 + rng.Float64()*6
		if genre == "documentary" {
			rating += 0.5 // mild correlation
		}
		if rating > 10 {
			rating = 10
		}
		votes := int64(10 + zipfPick(rng, 200000, 2))
		title.AppendRow(table.Row{
			table.NewInt(int64(i)),
			table.NewString(movieTitle(rng, i)),
			table.NewString(kinds[zipfPick(rng, len(kinds), 1.5)]),
			table.NewInt(int64(year)),
			table.NewString(genre),
			table.NewFloat(float64(int(rating*10)) / 10),
			table.NewInt(votes),
		})
	}

	name := table.New("name", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "name", Kind: table.KindString},
		{Name: "gender", Kind: table.KindString},
		{Name: "birth_year", Kind: table.KindInt},
	})
	for i := 0; i < nNames; i++ {
		g := "m"
		if rng.Intn(2) == 0 {
			g = "f"
		}
		name.AppendRow(table.Row{
			table.NewInt(int64(i)),
			table.NewString(personName(rng)),
			table.NewString(g),
			table.NewInt(int64(1920 + rng.Intn(85))),
		})
	}

	castInfo := table.New("cast_info", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "title_id", Kind: table.KindInt},
		{Name: "name_id", Kind: table.KindInt},
		{Name: "role", Kind: table.KindString},
		{Name: "position", Kind: table.KindInt},
	})
	for i := 0; i < nCast; i++ {
		castInfo.AppendRow(table.Row{
			table.NewInt(int64(i)),
			table.NewInt(int64(zipfPick(rng, nTitles, 1))), // popular titles get more cast rows
			table.NewInt(int64(zipfPick(rng, nNames, 1))),  // stars appear more
			table.NewString(roles[zipfPick(rng, len(roles), 1)]),
			table.NewInt(int64(1 + rng.Intn(30))),
		})
	}

	movieInfo := table.New("movie_info", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "title_id", Kind: table.KindInt},
		{Name: "info_type", Kind: table.KindString},
		{Name: "value", Kind: table.KindFloat},
	})
	for i := 0; i < nInfo; i++ {
		it := infoTypes[rng.Intn(len(infoTypes))]
		var v float64
		switch it {
		case "budget":
			v = float64(100000 * (1 + zipfPick(rng, 2000, 1.5)))
		case "gross":
			v = float64(50000 * (1 + zipfPick(rng, 8000, 1.5)))
		case "runtime":
			v = float64(60 + rng.Intn(120))
		default:
			v = float64(rng.Intn(50))
		}
		movieInfo.AppendRow(table.Row{
			table.NewInt(int64(i)),
			table.NewInt(int64(zipfPick(rng, nTitles, 1))),
			table.NewString(it),
			table.NewFloat(v),
		})
	}

	db := table.NewDatabase()
	db.Add(title)
	db.Add(name)
	db.Add(castInfo)
	db.Add(movieInfo)
	return db
}

var areas = []string{
	"databases", "machine learning", "systems", "theory", "vision",
	"networks", "security", "hci",
}

var affiliations = []string{
	"MIT", "Stanford", "Berkeley", "CMU", "Tel Aviv University",
	"University of Pennsylvania", "ETH Zurich", "Oxford", "Tsinghua",
	"Technion", "EPFL", "Max Planck",
}

var paperWords = []string{
	"Learning", "Scalable", "Adaptive", "Efficient", "Approximate",
	"Distributed", "Neural", "Robust", "Interactive", "Incremental",
	"Query", "Index", "Graph", "Stream", "Transaction", "Storage",
	"Optimization", "Processing", "Exploration", "Sampling",
}

// MAS generates the MAS-shaped database. At scale 1.0:
// author ≈ 8k, publication ≈ 15k, writes ≈ 30k, conference ≈ 60.
func MAS(scale float64, seed int64) *table.Database {
	rng := rand.New(rand.NewSource(seed))
	nAuthors := scaled(8000, scale)
	nPubs := scaled(15000, scale)
	nWrites := scaled(30000, scale)
	nConfs := 60

	conference := table.New("conference", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "name", Kind: table.KindString},
		{Name: "area", Kind: table.KindString},
		{Name: "rank", Kind: table.KindInt},
	})
	for i := 0; i < nConfs; i++ {
		conference.AppendRow(table.Row{
			table.NewInt(int64(i)),
			table.NewString(fmt.Sprintf("CONF-%02d", i)),
			table.NewString(areas[i%len(areas)]),
			table.NewInt(int64(1 + i%4)),
		})
	}

	author := table.New("author", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "name", Kind: table.KindString},
		{Name: "affiliation", Kind: table.KindString},
		{Name: "pub_count", Kind: table.KindInt},
	})
	for i := 0; i < nAuthors; i++ {
		author.AppendRow(table.Row{
			table.NewInt(int64(i)),
			table.NewString(personName(rng)),
			table.NewString(affiliations[zipfPick(rng, len(affiliations), 1)]),
			table.NewInt(int64(1 + zipfPick(rng, 200, 1.5))),
		})
	}

	publication := table.New("publication", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "title", Kind: table.KindString},
		{Name: "year", Kind: table.KindInt},
		{Name: "conference_id", Kind: table.KindInt},
		{Name: "citations", Kind: table.KindInt},
	})
	for i := 0; i < nPubs; i++ {
		w1 := paperWords[rng.Intn(len(paperWords))]
		w2 := paperWords[rng.Intn(len(paperWords))]
		publication.AppendRow(table.Row{
			table.NewInt(int64(i)),
			table.NewString(fmt.Sprintf("%s %s for %s", w1, w2, areas[rng.Intn(len(areas))])),
			table.NewInt(int64(1990 + zipfPick(rng, 34, 0.5))),
			table.NewInt(int64(zipfPick(rng, nConfs, 1))),
			table.NewInt(int64(zipfPick(rng, 5000, 2))),
		})
	}

	writes := table.New("writes", table.Schema{
		{Name: "author_id", Kind: table.KindInt},
		{Name: "publication_id", Kind: table.KindInt},
		{Name: "position", Kind: table.KindInt},
	})
	for i := 0; i < nWrites; i++ {
		writes.AppendRow(table.Row{
			table.NewInt(int64(zipfPick(rng, nAuthors, 1))),
			table.NewInt(int64(rng.Intn(nPubs))),
			table.NewInt(int64(1 + rng.Intn(6))),
		})
	}

	db := table.NewDatabase()
	db.Add(author)
	db.Add(publication)
	db.Add(writes)
	db.Add(conference)
	return db
}

var carriers = []string{"AA", "DL", "UA", "WN", "B6", "AS", "NK", "F9"}

var airports = []string{
	"ATL", "LAX", "ORD", "DFW", "DEN", "JFK", "SFO", "SEA", "LAS", "MCO",
	"EWR", "CLT", "PHX", "IAH", "MIA", "BOS", "MSP", "FLL", "DTW", "PHL",
}

// Flights generates the FLIGHTS-shaped fact table. At scale 1.0 ≈ 50k rows.
func Flights(scale float64, seed int64) *table.Database {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(50000, scale)

	flights := table.New("flights", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "carrier", Kind: table.KindString},
		{Name: "origin", Kind: table.KindString},
		{Name: "dest", Kind: table.KindString},
		{Name: "month", Kind: table.KindInt},
		{Name: "day_of_week", Kind: table.KindInt},
		{Name: "dep_delay", Kind: table.KindFloat},
		{Name: "arr_delay", Kind: table.KindFloat},
		{Name: "distance", Kind: table.KindInt},
		{Name: "cancelled", Kind: table.KindBool},
	})
	for i := 0; i < n; i++ {
		carrier := carriers[zipfPick(rng, len(carriers), 1)]
		origin := airports[zipfPick(rng, len(airports), 1)]
		dest := airports[zipfPick(rng, len(airports), 1)]
		for dest == origin {
			dest = airports[rng.Intn(len(airports))]
		}
		month := 1 + rng.Intn(12)
		// Delays: mostly small, heavy tail, worse in summer/winter.
		base := rng.NormFloat64() * 12
		if month == 7 || month == 12 {
			base += 8
		}
		dep := base + float64(zipfPick(rng, 300, 2))
		arr := dep + rng.NormFloat64()*10
		flights.AppendRow(table.Row{
			table.NewInt(int64(i)),
			table.NewString(carrier),
			table.NewString(origin),
			table.NewString(dest),
			table.NewInt(int64(month)),
			table.NewInt(int64(1 + rng.Intn(7))),
			table.NewFloat(float64(int(dep*10)) / 10),
			table.NewFloat(float64(int(arr*10)) / 10),
			table.NewInt(int64(200 + zipfPick(rng, 2800, 1))),
			table.NewBool(rng.Float64() < 0.02),
		})
	}

	db := table.NewDatabase()
	db.Add(flights)
	return db
}

// Blowup duplicates every table's rows by the given integer factor, used by
// the Figure 4 "problem justification" experiment that grows the database.
// Duplicated rows get fresh values in any column named "id" to keep keys
// unique.
func Blowup(db *table.Database, factor int) *table.Database {
	if factor <= 1 {
		return db
	}
	out := table.NewDatabase()
	for _, t := range db.Tables() {
		nt := table.New(t.Name, t.Schema)
		idCol := t.ColumnIndex("id")
		nextID := int64(t.NumRows())
		for f := 0; f < factor; f++ {
			for i := 0; i < t.NumRows(); i++ {
				row := t.Row(i)
				if f > 0 && idCol >= 0 {
					row[idCol] = table.NewInt(nextID)
					nextID++
				}
				nt.AppendRow(row)
			}
		}
		out.Add(nt)
	}
	return out
}
