module nalquery

go 1.23
